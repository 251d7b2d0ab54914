package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, 3000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].endpoint != b[i].endpoint || a[i].key != b[i].key || a[i].tc != b[i].tc || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two generations from seed 7", w.name, i)
			}
		}
		c, err := generate(w, 8, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a) == digest(c) {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", w.name)
		}
	}
}

func TestStreamKeysAndMix(t *testing.T) {
	for _, w := range workloads {
		reqs, err := generate(w, 3, 2*w.pool)
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[string]bool)
		traces := make(map[string]bool)
		count := make(map[string]int)
		for _, r := range reqs[:w.pool] {
			count[r.endpoint]++
		}
		for _, r := range reqs {
			if r.spending() {
				if r.key == "" || keys[r.key] || strings.HasPrefix(r.key, "h") {
					t.Fatalf("%s: key %q is empty, repeated, or in the history's namespace", w.name, r.key)
				}
				keys[r.key] = true
			}
			if traces[r.tc.TraceID()] {
				t.Fatalf("%s: trace id %s repeated", w.name, r.tc.TraceID())
			}
			traces[r.tc.TraceID()] = true
		}
		var total float64
		for _, m := range w.mix {
			total += m.weight
		}
		for _, m := range w.mix {
			if want := int(m.weight / total * float64(w.pool)); count[m.endpoint] != want {
				t.Errorf("%s: pool holds %d %s bodies, want %d", w.name, count[m.endpoint], m.endpoint, want)
			}
		}
	}
}
