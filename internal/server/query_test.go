package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	uss "repro"
	"repro/internal/workload"
)

// groupDTO is the per-group shape /query answered with before the direct
// renderer: encoding/json of it, inside the handler's answer map, is the
// reference the renderer must reproduce byte for byte.
type groupDTO struct {
	Key        map[string]string `json:"key,omitempty"`
	KeyString  string            `json:"key_string"`
	Value      float64           `json:"value"`
	StdErr     float64           `json:"std_err"`
	SampleBins int               `json:"sample_bins"`
}

// referenceQueryAnswer is the old handler's encoding of an answer.
func referenceQueryAnswer(t testing.TB, groups []uss.QueryGroup, skipped int, rh *ReadHealth) []byte {
	t.Helper()
	out := make([]groupDTO, len(groups))
	for i, g := range groups {
		out[i] = groupDTO{
			Key:        maps.Clone(g.Key),
			KeyString:  g.KeyString(),
			Value:      g.Sum.Value,
			StdErr:     g.Sum.StdErr,
			SampleBins: g.Sum.SampleBins,
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rh.add(map[string]any{"groups": out, "skipped": skipped})); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderAnswer runs the renderer the way handleQuery does.
func renderAnswer(t testing.TB, groups []uss.QueryGroup, skipped int, rh *ReadHealth) ([]byte, error) {
	t.Helper()
	var peers []byte
	if rh != nil && rh.Peers != nil {
		var err error
		if peers, err = json.Marshal(rh.Peers); err != nil {
			t.Fatal(err)
		}
	}
	return appendQueryAnswer(nil, groups, skipped, rh, peers)
}

// awkwardFragments are the pieces random strings are made of: every
// class of byte encoding/json escapes or rewrites, plus plain and
// multi-byte text.
var awkwardFragments = []string{
	"a", "us", "0", " ", "=", "|", "<", ">", "&", `"`, `\`, "\x00", "\x01",
	"\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f", "\xff", "\xc3", "\xe2\x80",
	"\u2028", "\u2029", "é", "日本", "\U0001F600", "\ufffd", "</script>",
}

func awkwardString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(4); n >= 0; n-- {
		sb.WriteString(awkwardFragments[rng.Intn(len(awkwardFragments))])
	}
	return sb.String()
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
	9.999999999999999e-7, 1, 3.0000000000000004, 1e20, 1e21, 9.999999999999999e20,
	123456.789, 1.7976931348623157e308, -2.5,
}

func awkwardFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // finite, any scale below 1
	default:
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(40)-15))
	}
}

// TestQueryRendererMatchesEncodingJSON is the renderer's differential
// test: over random answers it must emit exactly the bytes encoding/json
// made of the old DTOs — escapes, float formats, key order and omission,
// read health and the trailing newline included.
func TestQueryRendererMatchesEncodingJSON(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < cases; c++ {
		groups := make([]uss.QueryGroup, rng.Intn(5))
		for i := range groups {
			g := &groups[i]
			switch dims := rng.Intn(5); dims {
			case 0: // the global group
			case 1:
				g.Key = map[string]string{}
			default:
				g.Key = make(map[string]string)
				for len(g.Key) < dims-1 {
					g.Key[awkwardString(rng)] = awkwardString(rng)
				}
			}
			g.Sum = uss.Estimate{Value: awkwardFloat(rng), StdErr: awkwardFloat(rng), SampleBins: rng.Intn(1 << 20)}
		}
		var rh *ReadHealth
		switch rng.Intn(3) {
		case 1:
			rh = &ReadHealth{Degraded: rng.Intn(2) == 0}
		case 2:
			type peer struct {
				Owner, Source, Error string
				Bins                 int
			}
			rh = &ReadHealth{Degraded: true, Peers: []peer{{awkwardString(rng), "owner", awkwardString(rng), rng.Intn(100)}}}
		}
		skipped := rng.Intn(1000)
		want := referenceQueryAnswer(t, groups, skipped, rh)
		got, err := renderAnswer(t, groups, skipped, rh)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d:\n got %q\nwant %q", c, got, want)
		}
	}
}

// TestQueryRendererRejectsNonFinite: a value encoding/json refuses is an
// error, never a truncated answer.
func TestQueryRendererRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, sum := range []uss.Estimate{{Value: f}, {Value: 1, StdErr: f}} {
			_, err := renderAnswer(t, []uss.QueryGroup{{Sum: uss.Estimate{Value: 1}}, {Sum: sum}}, 0, nil)
			if err == nil || !strings.Contains(err.Error(), "unsupported value") {
				t.Errorf("%+v: err %v, want encoding/json's unsupported value", sum, err)
			}
		}
	}
}

// postQuery posts a /query body and returns the status and raw answer.
func postQuery(t testing.TB, ts *httptest.Server, name, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sketches/"+name+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// wantQueryAnswer is the reference answer for spec on entry name,
// evaluated through the entry's own prepared query.
func wantQueryAnswer(t *testing.T, s *Server, name string, spec uss.QuerySpec) []byte {
	t.Helper()
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatalf("sketch %q not registered", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	groups, skipped, err := e.prepared(spec).Run()
	if err != nil {
		t.Fatal(err)
	}
	return referenceQueryAnswer(t, groups, skipped, nil)
}

// TestQueryAnswerMatchesReference runs the whole handler over labels full
// of awkward bytes on every point-read kind, repeated shapes included:
// each answer, memo hits too, equals the reference encoding.
func TestQueryAnswerMatchesReference(t *testing.T) {
	s, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 64, Seed: 1})
	create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 64, Seed: 2})
	create(t, ts, SketchConfig{Name: "sh", Kind: KindSharded, Bins: 16, Shards: 4, Seed: 3})
	rng := rand.New(rand.NewSource(2))
	clean := func(s string) string { // labels cannot carry the separators
		return strings.NewReplacer("|", "", "=", "", "\n", "", "\r", "", "\t", "").Replace(s)
	}
	var body strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&body, "d<&>=%s|k\"=%s|x=%d\n", clean(awkwardString(rng)), clean(awkwardString(rng)), i%3)
	}
	body.WriteString("not-a-tuple\n")
	for _, name := range []string{"u", "w", "sh"} {
		if resp := postText(t, ts.URL+"/v1/sketches/"+name+"/ingest?sync=1", body.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ingest: status %d", name, resp.StatusCode)
		}
	}
	specs := []string{
		`{}`,
		`{"group_by":["d<&>"]}`,
		`{"group_by":["k\"","d<&>"]}`,
		`{"where":[{"dim":"x","in":["0","2"]}],"group_by":["x","k\""]}`,
		`{"where":[{"dim":"x","in":["nope"]}],"group_by":["x"]}`,
	}
	for _, name := range []string{"u", "w", "sh"} {
		for _, body := range specs {
			spec, err := s.decodeQuery(httptest.NewRequest("POST", "/", strings.NewReader(body)))
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 2; rep++ {
				code, got := postQuery(t, ts, name, body)
				if code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", name, body, code, got)
				}
				if want := wantQueryAnswer(t, s, name, spec); !bytes.Equal(got, want) {
					t.Fatalf("%s %s rep %d:\n got %q\nwant %q", name, body, rep, got, want)
				}
			}
		}
	}
}

// TestNonFiniteAnswersAre500: two finite weights can sum past the float64
// range. Every answer carrying that +Inf must fail as a 500 naming the
// encode failure, never a 200 with an empty body.
func TestNonFiniteAnswersAre500(t *testing.T) {
	_, ts := testServer(t)
	create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 16, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/sketches/w/ingest?sync=1", "application/json",
		strings.NewReader(`{"rows":[{"item":"k=a","weight":1e308},{"item":"k=a","weight":1e308}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	const want = `{"error":"encode response: json: unsupported value: +Inf"}` + "\n"
	check := func(what string, resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError || string(body) != want {
			t.Errorf("%s: status %d body %q, want 500 %q", what, resp.StatusCode, body, want)
		}
		if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Errorf("%s: Content-Length %q for %d bytes", what, cl, len(body))
		}
	}
	for _, path := range []string{"/v1/sketches/w/topk?k=1", "/v1/sketches/w", "/v1/sketches"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		check("GET "+path, resp)
	}
	resp, err = http.Post(ts.URL+"/v1/sketches/w/query", "application/json", strings.NewReader(`{"group_by":["k"]}`))
	if err != nil {
		t.Fatal(err)
	}
	check("POST query", resp)
}

// TestQueryMemoInvalidationHTTP: a /query answered from the memo must
// change exactly when the sketch does — after a sync ingest on every
// kind, a RestoreSketch, a weighted push, and a cold demote → revive.
func TestQueryMemoInvalidationHTTP(t *testing.T) {
	const q = `{"group_by":["k"]}`
	answer := func(t *testing.T, ts *httptest.Server, name string) string {
		t.Helper()
		code, body := postQuery(t, ts, name, q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		return string(body)
	}
	ingest := func(t *testing.T, ts *httptest.Server, name, rows string) {
		t.Helper()
		if resp := postText(t, ts.URL+"/v1/sketches/"+name+"/ingest?sync=1", rows); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ingest: status %d", name, resp.StatusCode)
		}
	}

	t.Run("ingest", func(t *testing.T) {
		_, ts := testServer(t)
		create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 16, Seed: 1})
		create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 16, Seed: 2})
		create(t, ts, SketchConfig{Name: "sh", Kind: KindSharded, Bins: 8, Shards: 2, Seed: 3})
		for _, name := range []string{"u", "w", "sh"} {
			ingest(t, ts, name, "k=a\n")
			first := answer(t, ts, name)
			if again := answer(t, ts, name); again != first {
				t.Fatalf("%s: repeat on an unchanged sketch %q, first %q", name, again, first)
			}
			ingest(t, ts, name, "k=a\nk=b\n")
			want := `{"groups":[{"key":{"k":"a"},"key_string":"k=a","value":2,"std_err":0,"sample_bins":1},` +
				`{"key":{"k":"b"},"key_string":"k=b","value":1,"std_err":0,"sample_bins":1}],"skipped":0}` + "\n"
			if got := answer(t, ts, name); got != want {
				t.Fatalf("%s after ingest: %q, want %q", name, got, want)
			}
		}
	})

	t.Run("restore", func(t *testing.T) {
		s, ts := testServer(t)
		create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 16, Seed: 1})
		ingest(t, ts, "u", "k=a\n")
		before := answer(t, ts, "u")
		cfg, stats, blob, err := s.SketchState("u")
		if err != nil {
			t.Fatal(err)
		}
		ingest(t, ts, "u", "k=b\nk=b\n")
		if answer(t, ts, "u") == before {
			t.Fatal("ingest did not change the answer")
		}
		if err := s.RestoreSketch(cfg, stats, blob); err != nil {
			t.Fatal(err)
		}
		if got := answer(t, ts, "u"); got != before {
			t.Fatalf("after RestoreSketch: %q, want %q", got, before)
		}
	})

	t.Run("push", func(t *testing.T) {
		_, ts := testServer(t)
		create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 16, Seed: 1})
		ingest(t, ts, "w", "k=a\t2\n")
		before := answer(t, ts, "w")
		agent := uss.New(8, uss.WithSeed(9))
		agent.Update("k=a")
		agent.Update("k=c")
		blob, err := agent.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sketches/w/snapshot", "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push: status %d", resp.StatusCode)
		}
		want := `{"groups":[{"key":{"k":"a"},"key_string":"k=a","value":3,"std_err":0,"sample_bins":1},` +
			`{"key":{"k":"c"},"key_string":"k=c","value":1,"std_err":0,"sample_bins":1}],"skipped":0}` + "\n"
		if got := answer(t, ts, "w"); got != want {
			t.Fatalf("after push: %q (before %q), want %q", got, before, want)
		}
	})

	t.Run("demote-revive", func(t *testing.T) {
		dir := t.TempDir()
		s, ts := durableServer(t, dir)
		defer shutdown(t, s, ts)
		create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 16, Seed: 1})
		ingest(t, ts, "u", "k=a\n")
		before := answer(t, ts, "u")
		e, _ := s.reg.Get("u")
		if !s.demote(e) {
			t.Fatal("demote refused an idle, fully applied sketch")
		}
		if got := answer(t, ts, "u"); got != before {
			t.Fatalf("revived answer %q, want %q", got, before)
		}
		if e.cold.Load() {
			t.Fatal("query did not revive the sketch")
		}
		ingest(t, ts, "u", "k=b\n")
		if got := answer(t, ts, "u"); got == before || !strings.Contains(got, `"key_string":"k=b"`) {
			t.Fatalf("after revive and ingest: %q", got)
		}
	})
}

// TestRaceQueryUnderIngest runs several /query shapes concurrently with
// async and sync ingest on each kind, so the race detector watches the
// memo, the render under the entry lock and the pooled buffers. Every
// answer must be a 200 whose JSON decodes.
func TestRaceQueryUnderIngest(t *testing.T) {
	_, ts := testServer(t)
	names := []string{"u", "w", "sh"}
	create(t, ts, SketchConfig{Name: "u", Kind: KindUnit, Bins: 32, Seed: 1})
	create(t, ts, SketchConfig{Name: "w", Kind: KindWeighted, Bins: 32, Seed: 2})
	create(t, ts, SketchConfig{Name: "sh", Kind: KindSharded, Bins: 16, Shards: 4, Seed: 3})
	shapes := []string{`{}`, `{"group_by":["a"]}`, `{"where":[{"dim":"b","in":["0","1"]}],"group_by":["a","b"]}`}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var rows strings.Builder
				for r := 0; r < 50; r++ {
					fmt.Fprintf(&rows, "a=%d|b=%d\n", (i*50+r)%13, r%3)
				}
				url := ts.URL + "/v1/sketches/" + names[i%3] + "/ingest"
				if w == 0 {
					url += "?sync=1"
				}
				resp, err := http.Post(url, "text/plain", strings.NewReader(rows.String()))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Post(ts.URL+"/v1/sketches/"+names[(i+r)%3]+"/query", "application/json",
					strings.NewReader(shapes[(i+r)%len(shapes)]))
				if err != nil {
					errc <- err
					return
				}
				var ans struct {
					Groups []groupDTO `json:"groups"`
				}
				err = json.NewDecoder(resp.Body).Decode(&ans)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("query: status %d, decode %v", resp.StatusCode, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// adServer is a server holding perfbench ingest-saturate's read sketch:
// an 8×1024 sharded sketch of 2¹⁹ AdStream keys on features 0, 3 and 6.
func adServer(t testing.TB) *Server {
	t.Helper()
	s := New(Config{IngestWorkers: 1, QueueDepth: 4})
	e, err := s.createSketch(context.Background(), SketchConfig{Name: "ads", Kind: KindSharded, Bins: 1024, Shards: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ads, err := workload.NewAdStream(workload.DefaultAdConfig(1<<19), 1)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]string, 0, 2000)
	for {
		im, ok := ads.Next()
		if ok {
			batch = append(batch, im.Key(0, 3, 6))
		}
		if len(batch) == cap(batch) || !ok && len(batch) > 0 {
			e.sharded.UpdateBatch(batch)
			batch = batch[:0]
		}
		if !ok {
			break
		}
	}
	return s
}

// adQueryShapes are perfbench's four /query bodies, named by their group
// counts on adServer's sketch.
var adQueryShapes = []struct{ name, body string }{
	{"groups-200", `{"where":[{"dim":"0","in":["0","1"]}],"group_by":["6"]}`},
	{"groups-50-filtered", `{"where":[{"dim":"6","in":["0","1","2"]}],"group_by":["0"]}`},
	{"groups-50", `{"group_by":["0"]}`},
	{"groups-1290", `{"where":[{"dim":"3","in":["0","1","2","3"]}],"group_by":["0","6"]}`},
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a measurement sees the handler's cost and not a recorder's
// buffer growing with the answer.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// serveQuery runs one /query through the handler in process and returns
// its status.
func serveQuery(h http.Handler, w *discardWriter, body string) int {
	clear(w.h)
	w.code = http.StatusOK
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sketches/ads/query", strings.NewReader(body)))
	return w.code
}

// TestQueryHandlerAllocsFlat pins the renderer's cost per group at zero
// allocations: on an unchanged sketch the handler allocates as much for
// 1290 groups as for 50. Decoding the request body is left out of the
// count, because encoding/json allocates per filter value and group-by
// dimension (15 allocations for perfbench's smallest body, 38 for its
// largest), a cost of the request and not of the answer.
func TestQueryHandlerAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	s := adServer(t)
	defer s.Shutdown(context.Background())
	h, w := s.Handler(), &discardWriter{h: http.Header{}}
	beyondDecode := map[string]float64{}
	for _, shape := range adQueryShapes {
		serveQuery(h, w, shape.body) // compile and evaluate once
		handler := testing.AllocsPerRun(50, func() {
			if code := serveQuery(h, w, shape.body); code != http.StatusOK {
				t.Fatalf("%s: status %d", shape.name, code)
			}
		})
		decode := testing.AllocsPerRun(50, func() {
			if _, err := s.decodeQuery(httptest.NewRequest("POST", "/v1/sketches/ads/query", strings.NewReader(shape.body))); err != nil {
				t.Fatal(err)
			}
		})
		beyondDecode[shape.name] = handler - decode
	}
	for _, shape := range adQueryShapes {
		if beyondDecode[shape.name] != beyondDecode["groups-50"] {
			t.Errorf("handler allocs/op beyond decoding the request: %v, want one figure for every group count", beyondDecode)
			break
		}
	}
}

// BenchmarkQueryAnswer times /query through the handler in process on
// perfbench ingest-saturate's read sketch, one sub-benchmark per
// perfbench query shape. The sketch does not change between iterations,
// so each answer is a memo hit plus rendering.
func BenchmarkQueryAnswer(b *testing.B) {
	s := adServer(b)
	defer s.Shutdown(context.Background())
	h, w := s.Handler(), &discardWriter{h: http.Header{}}
	for _, shape := range adQueryShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if code := serveQuery(h, w, shape.body); code != http.StatusOK {
					b.Fatalf("status %d", code)
				}
			}
		})
	}
}
