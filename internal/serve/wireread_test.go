package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

// mustMarshal renders a request body the way the clients do.
func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatalf("marshal: %v", err)
	}
	return b
}

// wireBodies are bench-shaped bodies of all five request types.
func wireBodies(tb testing.TB, rows int) map[string][]byte {
	data := testData(7, rows, 2)
	return map[string][]byte{
		"fit":     mustMarshal(tb, FitRequest{Tenant: "bench", Seed: 3, Degrade: "widen", Data: data}),
		"certify": mustMarshal(tb, CertifyRequest{Tenant: "bench", Data: data}),
		"select": mustMarshal(tb, SelectRequest{Tenant: "bench", Seed: -4, Epsilon: 0.05, Data: data,
			Candidates: []CandidateJSON{{Name: "cand-0", Theta: []float64{0.25, -1e-7}}, {Name: "cand-1", Theta: []float64{}}}}),
		"density": mustMarshal(tb, DensityRequest{Tenant: "bench", Seed: 5, Feature: 1, Lo: -1, Hi: 1, Epsilon: 0.02,
			Kind: "gibbs", Bins: 8, BinChoices: []int{4, 8, 16}, Clip: 4, Data: DataJSON{X: data.X}}),
		"summary": mustMarshal(tb, SummaryRequest{Tenant: "bench", Seed: 6, Lo: -1, Hi: 1, Bins: 8,
			Quantiles: []float64{0.25, 0.5, 0.75}, Epsilon: 0.3, Data: data}),
	}
}

// diffDecode decodes body into T through decodeBody and through
// encoding/json alone: both must succeed or fail alike, with the same
// message, and leave reflect.DeepEqual values (nil and empty slices
// differ under DeepEqual).
func diffDecode[T any, P wireRequest[T]](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gotErr := decodeBody(body, nil, P(&got))
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%T: decode error %v, encoding/json error %v", got, gotErr, wantErr)
	case wantErr != nil && gotErr.Error() != fmt.Sprintf("%v: %v", errBadRequest, wantErr):
		t.Fatalf("%T: decode error %q, encoding/json error %q", got, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decode gave %#v, encoding/json %#v", got, got, want)
	}
}

// FuzzDecodeRequest holds decode to encoding/json on arbitrary bytes
// for every request type: whatever the wire reader accepts must decode
// to exactly what encoding/json gives, and everything else goes to
// encoding/json itself.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range wireBodies(f, 3) {
		f.Add(body)
		f.Add(append(append([]byte(nil), body...), " trailing"...))
	}
	for _, s := range []string{
		``, `null`, `{}`, `[]`, `{not json`, ` {"tenant":"a"} `, `{"tenant":"a"}}`, `{"tenant":"a"}{"tenant":"b"}`,
		`{"tenant":null}`, `{"data":null}`, `{"data":{"x":[[1,null]]}}`,
		`{"tenant":"a\"b"}`, `{"tenant":"a"}`, `{"tenant":"é"}`, "{\"tenant\":\"\xff\"}", "{\"tenant\":\"a\tb\"}",
		`{"Tenant":"a"}`, `{"TENANT":"a","Data":{"X":[[1]]}}`, `{"unknown":1,"tenant":"a"}`,
		`{"data":{"x":[[1]]},"data":{"y":[2]}}`, `{"data":{"x":[[1]],"x":[[2,3]]}}`, `{"tenant":"a","tenant":"b"}`,
		`{"seed":1e3}`, `{"seed":-0}`, `{"seed":1.5}`, `{"seed":9223372036854775808}`, `{"feature":-9223372036854775808}`,
		`{"lo":-0,"hi":1E+2,"epsilon":0.5e-3}`, `{"epsilon":1e400}`, `{"epsilon":1e-400}`, `{"epsilon":01}`, `{"epsilon":.5}`,
		`{"epsilon":1.}`, `{"epsilon":-}`, `{"epsilon":0x10}`, `{"epsilon":Infinity}`, `{"epsilon":"1"}`,
		`{"data":{"x":[],"y":[]},"candidates":[],"quantiles":[],"bin_choices":[]}`, `{"data":{"x":[[],[]]}}`,
		`{"candidates":[{"name":"c","theta":[1,2]},{}]}`, `{"bin_choices":[4,8.0]}`,
		" \t\r\n{ \"tenant\" : \"a\" , \"data\" : { \"x\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] , \"y\" : [ 1 , -1 ] } }",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		diffDecode[FitRequest](t, body)
		diffDecode[CertifyRequest](t, body)
		diffDecode[SelectRequest](t, body)
		diffDecode[DensityRequest](t, body)
		diffDecode[SummaryRequest](t, body)
	})
}

// TestWireReaderTakesMarshalOutput pins that what the clients send
// stays on the fast path for every request type, not just certify.
func TestWireReaderTakesMarshalOutput(t *testing.T) {
	bodies := wireBodies(t, 24)
	for name, ok := range map[string]bool{
		"fit":     new(FitRequest).readWire(&wireReader{b: bodies["fit"]}),
		"certify": new(CertifyRequest).readWire(&wireReader{b: bodies["certify"]}),
		"select":  new(SelectRequest).readWire(&wireReader{b: bodies["select"]}),
		"density": new(DensityRequest).readWire(&wireReader{b: bodies["density"]}),
		"summary": new(SummaryRequest).readWire(&wireReader{b: bodies["summary"]}),
	} {
		if !ok {
			t.Errorf("%s: the wire reader declined json.Marshal output", name)
		}
	}
}

// TestDecodeFastPathAllocs guards the fast path on a bench-shaped
// certify body (2000 rows, 2 features): encoding/json allocates about
// 4,050 times here, so a body that slips onto the fallback fails.
func TestDecodeFastPathAllocs(t *testing.T) {
	body := mustMarshal(t, CertifyRequest{Tenant: "bench", Data: testData(7, 2000, 2)})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/certify", rd)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		var v CertifyRequest
		if err := decode(req, &v); err != nil || len(v.Data.X) != 2000 {
			t.Fatalf("decode: %v (%d rows)", err, len(v.Data.X))
		}
	})
	if allocs > 64 {
		t.Errorf("decoding a 2000-row certify body allocated %.0f times, want <= 64", allocs)
	}
}

// BenchmarkDecodeRequest times the decode stage on the two body shapes
// the serve benchmark sends: a 24-row fit and a 2000-row certify.
func BenchmarkDecodeRequest(b *testing.B) {
	cases := []struct {
		name string
		body []byte
		run  func(*http.Request) error
	}{
		{"fit-24", mustMarshal(b, FitRequest{Tenant: "bench", Seed: 1, Data: testData(7, 24, 2)}),
			func(r *http.Request) error { var v FitRequest; return decode(r, &v) }},
		{"certify-2000", mustMarshal(b, CertifyRequest{Tenant: "bench", Data: testData(7, 2000, 2)}),
			func(r *http.Request) error { var v CertifyRequest; return decode(r, &v) }},
	}
	for _, bc := range cases {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(bc.body)
			req := httptest.NewRequest(http.MethodPost, "/", rd)
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(bc.body)
				if err := bc.run(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeBodyCap holds the whole-body read to the streaming decode
// it replaced at the maxBody cap: an object that closes before the cap
// is served however much follows it, and one that runs past the cap
// fails with the same error.
func TestDecodeBodyCap(t *testing.T) {
	small := mustMarshal(t, FitRequest{Tenant: "alpha", Seed: 1, Data: testData(3, 4, 2)})
	huge := strings.Repeat("[0.5,0.5],", maxBody/10+1)
	for name, body := range map[string]string{
		"junk past the cap":   string(small) + strings.Repeat(" x", maxBody/2+1),
		"object past the cap": `{"tenant":"alpha","data":{"x":[` + huge + `[1,1]]}}`,
	} {
		capped := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/fit", strings.NewReader(body))
			r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, maxBody)
			return r
		}
		var got, want FitRequest
		gotErr := decode(capped(), &got)
		wantErr := json.NewDecoder(capped().Body).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || wantErr != nil && gotErr.Error() != fmt.Sprintf("%v: %v", errBadRequest, wantErr) {
			t.Errorf("%s: decode error %v, streaming decode error %v", name, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decode and streaming decode disagree", name)
		}
	}
}

// TestDecodeReadsWholeBody serves the bodies whose handling reading the
// body in full could change: one over maxBody and one malformed are
// refused with 400 before any ε is spent or any WAL record written, and
// a valid object followed by trailing bytes is served byte-identically
// to the same object alone.
func TestDecodeReadsWholeBody(t *testing.T) {
	cfg := func(dir string) Config {
		return Config{Tenants: walTenant(5), Learner: LearnerSpec{Epsilon: 0.4}, WALDir: dir}
	}
	dir := t.TempDir()
	s, ts := newTestService(t, cfg(dir))
	clean := mustMarshal(t, FitRequest{Tenant: "alpha", Seed: 9, Data: testData(4, 24, 2)})

	oversize := `{"tenant":"alpha","seed":1,"data":{"x":[` + strings.Repeat("[0.5,0.5],", maxBody/10+1) + `[1,1]]}}`
	for key, body := range map[string]string{"oversize": oversize, "malformed": "{not json"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/fit", strings.NewReader(body))
		req.Header.Set("Idempotency-Key", key)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s body: HTTP %d (%s), want 400", key, rec.Code, rec.Body.Bytes())
		}
	}
	if n := getAlpha(t, s).Acct.Count(); n != 0 {
		t.Fatalf("refused bodies spent %d release(s)", n)
	}

	trailing := append(append([]byte(nil), clean...), "\n{\"tenant\":\"ghost\"} ]junk"...)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fit", bytes.NewReader(trailing))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "trailing")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing bytes: HTTP %d (%s), read error %v", resp.StatusCode, got, err)
	}
	_, twin := newTestService(t, cfg(t.TempDir()))
	if resp, want := postKeyed(t, twin.URL+"/v1/fit", json.RawMessage(clean), "clean"); resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("trailing bytes changed the response:\n got %s\nwant %s (HTTP %d)", got, want, resp.StatusCode)
	}

	ts.Close()
	s.CloseWALs()
	for _, rec := range readWALRecords(t, filepath.Join(dir, "alpha.wal")) {
		if rec.Op == wal.OpReserve && rec.Key != "trailing" {
			t.Errorf("refused body left a WAL reserve: %+v", rec)
		}
	}
	if n := getAlpha(t, s).Acct.Count(); n != 1 {
		t.Errorf("accountant spent %d release(s), want 1", n)
	}
}
