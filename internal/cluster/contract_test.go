package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestReadContractNodeVsCluster sends the same read requests to one
// in-process node and to a 3-node in-process cluster holding the same
// rows, and requires the same status and the same parsed JSON once the
// cluster's read-health fields are removed. It covers the read rows of
// the server's error-mapping table, the valid point and range reads,
// and the rows where the cluster's answers used to drift from the node's.
func TestReadContractNodeVsCluster(t *testing.T) {
	node := server.New(server.Config{})
	ns := httptest.NewServer(node.Handler())
	t.Cleanup(func() {
		ns.Close()
		_ = node.Shutdown(context.Background())
	})
	tc := newTestCluster(t, 3, nil)

	// A weighted sketch under capacity, so the gathered answer is exact,
	// and a rollup with two windows.
	weighted := `{"name":"w","kind":"weighted","bins":64,"seed":1}`
	rollup := `{"name":"ru","kind":"rollup","bins":16,"window_length":60,"seed":1}`
	rows := "country=us|ad=1\t5\ncountry=us|ad=2\t3\ncountry=de|ad=1\t2\n" +
		"country=fr|ad=3\t7\ncountry=de|ad=2\t1.5\ncountry=us|ad=1\t4\n"
	windows := "a\t5\nb\t10\na\t70\nc\t75\na\t80\nb\t119\n"
	for _, base := range []string{ns.URL, tc.urls[0]} {
		for _, cfg := range []string{weighted, rollup} {
			if code, b := do(t, "POST", base+"/v1/sketches", "application/json", cfg); code != http.StatusCreated {
				t.Fatalf("create at %s: status %d: %s", base, code, b)
			}
		}
		for name, body := range map[string]string{"w": rows, "ru": windows} {
			if code, b := do(t, "POST", base+"/v1/sketches/"+name+"/ingest?sync=1", "text/plain", body); code != http.StatusOK {
				t.Fatalf("ingest %s at %s: status %d: %s", name, base, code, b)
			}
		}
	}

	const q = "application/json"
	cases := []struct{ method, path, ctype, body string }{
		// The read rows of TestErrorMappingTable.
		{"GET", "/v1/sketches/ghost/snapshot", "", ""},
		{"GET", "/v1/sketches/ghost/topk", "", ""},
		{"GET", "/v1/sketches/ghost/estimate?item=a", "", ""},
		{"GET", "/v1/sketches/ghost/sum?prefix=a", "", ""},
		{"POST", "/v1/sketches/ghost/query", q, "{}"},
		{"GET", "/v1/sketches/ghost/range/topk?from=0&to=1", "", ""},
		{"GET", "/v1/sketches/ghost/range/sum?from=0&to=1&prefix=a", "", ""},
		{"GET", "/v1/sketches/ghost/range/total?from=0&to=1", "", ""},
		{"GET", "/v1/sketches/ru/snapshot", "", ""},
		{"GET", "/v1/sketches/ru/topk", "", ""},
		{"GET", "/v1/sketches/w/estimate", "", ""},
		{"GET", "/v1/sketches/w/sum", "", ""},
		{"GET", "/v1/sketches/w/range/topk?from=0&to=1", "", ""},
		{"GET", "/v1/sketches/ru/range/topk?from=x&to=1", "", ""},

		// Rows where the cluster once answered differently.
		{"GET", "/v1/sketches/ghost/sum", "", ""},
		{"GET", "/v1/sketches/ghost/estimate", "", ""},
		{"POST", "/v1/sketches/ru/query", q, `{"where":`},
		{"POST", "/v1/sketches/w/query", q, "{}"},
		{"GET", "/v1/sketches/ru/range/topk?from=0&to=200&k=x", "", ""},
		{"GET", "/v1/sketches/ru/range/sum?from=0&to=200", "", ""},
		{"GET", "/v1/sketches/ru/range/sum?from=1000&to=2000&prefix=a", "", ""},

		// Reads of live sketches, and their parameter errors.
		{"GET", "/v1/sketches/w/topk", "", ""},
		{"GET", "/v1/sketches/w/topk?k=2", "", ""},
		{"GET", "/v1/sketches/w/topk?k=x", "", ""},
		{"GET", "/v1/sketches/w/estimate?item=country%3Dus%7Cad%3D1", "", ""},
		{"GET", "/v1/sketches/w/estimate?item=absent", "", ""},
		{"GET", "/v1/sketches/w/sum?prefix=country=us", "", ""},
		{"GET", "/v1/sketches/w/sum?suffix=ad=1", "", ""},
		{"GET", "/v1/sketches/w/sum?items=country%3Dde%7Cad%3D1,absent", "", ""},
		{"GET", "/v1/sketches/w/sum?prefix=a&suffix=b", "", ""},
		{"POST", "/v1/sketches/w/query", q, `{"group_by":["country"]}`},
		{"POST", "/v1/sketches/w/query", q, `{"where":[{"dim":"ad","in":["1"]}],"group_by":["country"]}`},
		{"POST", "/v1/sketches/w/query", q, `{"where":`},
		{"GET", "/v1/sketches/ru/range/topk?from=0&to=200&k=2", "", ""},
		{"GET", "/v1/sketches/ru/range/sum?from=0&to=200&prefix=a", "", ""},
		{"GET", "/v1/sketches/ru/range/total?from=0&to=200", "", ""},
	}
	for i, c := range cases {
		via := tc.urls[i%len(tc.urls)]
		wantCode, want := do(t, c.method, ns.URL+c.path, c.ctype, c.body)
		gotCode, got := do(t, c.method, via+c.path, c.ctype, c.body)
		if gotCode != wantCode {
			t.Errorf("%s %s: cluster status %d (%s), node %d (%s)", c.method, c.path, gotCode, got, wantCode, want)
			continue
		}
		var nodeAns, clusterAns any
		if err := json.Unmarshal(want, &nodeAns); err != nil {
			t.Fatalf("%s %s: node answer: %v: %s", c.method, c.path, err, want)
		}
		if err := json.Unmarshal(got, &clusterAns); err != nil {
			t.Fatalf("%s %s: cluster answer: %v: %s", c.method, c.path, err, got)
		}
		if m, ok := clusterAns.(map[string]any); ok && gotCode == http.StatusOK {
			if m["degraded"] != false {
				t.Errorf("%s %s: healthy cluster answer lacks degraded=false: %s", c.method, c.path, got)
			}
		}
		// std_err and ci95 stay out: the gathered sketch is sized at its
		// merged bin count, so it always looks full and its variance
		// estimate is nonzero even where the node's sketch is under
		// capacity and reports the exact std_err 0 and ci95 [v, v].
		nodeAns = strip(nodeAns, "std_err", "ci95")
		clusterAns = strip(clusterAns, "std_err", "ci95", "degraded", "peers")
		if !reflect.DeepEqual(clusterAns, nodeAns) {
			t.Errorf("%s %s %s:\ncluster %s\nnode    %s", c.method, c.path, c.body, got, want)
		}
	}
}

// do sends one request and returns its status and body.
func do(t *testing.T, method, url, ctype, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// strip drops keys from every JSON object in v, at any depth.
func strip(v any, keys ...string) any {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range keys {
			delete(x, k)
		}
		for k, e := range x {
			x[k] = strip(e, keys...)
		}
	case []any:
		for i, e := range x {
			x[i] = strip(e, keys...)
		}
	}
	return v
}
