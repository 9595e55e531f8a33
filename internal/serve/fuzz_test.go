package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

var (
	fuzzOnce   sync.Once
	fuzzServer *Server
)

// fuzzTarget returns a shared Server tuned for fuzzing: tight limits so
// adversarial inputs stay cheap, zero linger so responses are immediate,
// and a generous limiter so parallel fuzz workers are never shed.
func fuzzTarget() *Server {
	fuzzOnce.Do(func() {
		fuzzServer = New(Config{
			Workers:     2,
			MaxBatch:    4,
			CacheSize:   64,
			MaxInflight: 1024,
			Limits: Limits{
				MaxBodyBytes: 1 << 16,
				MaxVectorLen: 256,
				MaxDepth:     64,
				MaxWordLen:   128,
				MaxRules:     16,
			},
			Logf: func(string, ...any) {},
		})
	})
	return fuzzServer
}

var fuzzPaths = []string{
	"/v1/huffman",
	"/v1/shannonfano",
	"/v1/treefromdepths",
	"/v1/obst",
	"/v1/lincfl/recognize",
}

// FuzzDecodeRequest throws arbitrary JSON bodies at every engine
// endpoint. The contract under fuzz: a handler never panics (the
// recoverer would surface that as a 500), and every response is either a
// valid engine result (200) or a structured 400 carrying an error code.
// CanonicalKey (the gateway's routing key) must agree with the handler
// on what a valid request is: it fails exactly when the handler rejects
// the body before running the engine (a 400 whose code is not "engine").
func FuzzDecodeRequest(f *testing.F) {
	// Seed corpus: the shapes the e2e suite sends, plus near-miss
	// variants that exercise each validation branch.
	seeds := []string{
		`{"weights":[5,2,1,1]}`,
		`{"weights":[0.4,0.3,0.2,0.1]}`,
		`{"weights":[]}`,
		`{"weights":[1e308,1e308]}`,
		`{"weights":[-1]}`,
		`{"weights":[0]}`,
		`{"weights":["nan"]}`,
		`{"depths":[2,2,2,2]}`,
		`{"depths":[1,2,3,3]}`,
		`{"depths":[0]}`,
		`{"depths":[-1]}`,
		`{"keys":[0.1,0.2],"gaps":[0.2,0.3,0.2]}`,
		`{"keys":[1],"gaps":[1]}`,
		`{"grammar":"palindrome","word":"abcba"}`,
		`{"grammar":"equalends","word":"aXa"}`,
		`{"grammar":"nosuch","word":"a"}`,
		`{"rules":[{"a":0,"pre":"a","b":-1,"suf":"a"}],"start":0,"word":"aa"}`,
		`{"rules":[],"start":0,"word":""}`,
		`{}`,
		`null`,
		`[]`,
		`"weights"`,
		`{"weights":[1,2],"extra":true}`,
		`{"weights":[1,2]}{"weights":[3]}`,
		`{"weights`,
	}
	for pi := range fuzzPaths {
		for _, body := range seeds {
			f.Add(pi, []byte(body))
		}
	}

	f.Fuzz(func(t *testing.T, pathIdx int, body []byte) {
		s := fuzzTarget()
		path := fuzzPaths[abs(pathIdx)%len(fuzzPaths)]

		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		rejected := false
		switch rec.Code {
		case http.StatusOK:
			var v any
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s: 200 with non-JSON body %q: %v", path, rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest:
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s: 400 with unstructured body %q: %v", path, rec.Body.Bytes(), err)
			}
			if env.Error.Code == "" {
				t.Fatalf("%s: 400 without error code: %s", path, rec.Body.Bytes())
			}
			rejected = env.Error.Code != "engine"
		default:
			// Anything else — especially a recovered panic's 500 — is a
			// handler bug for byte-slice inputs.
			t.Fatalf("%s: unexpected status %d: %s", path, rec.Code, rec.Body.Bytes())
		}

		if _, err := CanonicalKey(path, body, s.cfg.Limits); (err != nil) != rejected {
			t.Fatalf("%s: CanonicalKey err = %v, but handler answered %d: %s", path, err, rec.Code, rec.Body.Bytes())
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // math.MinInt
			return 0
		}
		return -x
	}
	return x
}
