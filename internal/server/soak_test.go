package server

// Server-level mutation/query soak: one writer toggles a hot fact in
// and out of a block while readers hammer the query, marginals, batch
// and count endpoints against the same instance. Run under -race (as
// CI does) this exercises every registry/cache/mutation interleaving;
// the assertions pin generation-keyed cache coherence:
//
//   - the writer's query IMMEDIATELY after each mutation must reflect
//     that mutation — a result cached under an older generation being
//     served as current is exactly the bug the generation key exists
//     to prevent;
//   - every concurrent reader response must equal one of the two
//     legal states bitwise (the exact rational, not a float blur) —
//     a torn response mixing generations fails loudly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	ocqa "repro"
)

// soakDo is the goroutine-safe variant of do: reader goroutines must
// not call t.Fatal (FailNow from a non-test goroutine is undefined),
// so every failure travels back as an in-band error.
func soakDo(method, url string, body, out any) (int, error) {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s response: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

func TestSoakMutationsVsQueries(t *testing.T) {
	ts, _ := newTestServer(t, Options{CacheSize: 64})
	reg := register(t, ts.URL, pkFacts, pkFDs)
	base := ts.URL + "/v1/instances/" + reg.ID

	queryReq := QueryRequest{Generator: "ur", Mode: "exact", Query: "Ans() :- Emp(x, 'Hot')"}

	// The two legal instance states, and the exact library answer for
	// each generator under each — the bitwise currency every server
	// response must match.
	q, err := ocqa.ParseQuery("Ans() :- Emp(x, 'Hot')")
	if err != nil {
		t.Fatal(err)
	}
	instWithout, err := ocqa.NewInstanceFromText(pkFacts, pkFDs)
	if err != nil {
		t.Fatal(err)
	}
	instWith, _, err := instWithout.ApplyInsert(ocqa.Fact{Rel: "Emp", Args: []string{"1", "Hot"}})
	if err != nil {
		t.Fatal(err)
	}
	exact := func(in *ocqa.Instance, gen ocqa.Generator) string {
		t.Helper()
		p, err := in.ExactProbability(ocqa.Mode{Gen: gen}, q, ocqa.Tuple{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p.RatString()
	}
	legal := map[string][2]string{
		"ur": {exact(instWithout, ocqa.UniformRepairs), exact(instWith, ocqa.UniformRepairs)},
		"us": {exact(instWithout, ocqa.UniformSequences), exact(instWith, ocqa.UniformSequences)},
	}
	probWithout, probWith := legal["ur"][0], legal["ur"][1]

	iterations := 40
	readerIters := 150
	if testing.Short() {
		iterations, readerIters = 10, 40
	}

	queryProb := func() string {
		var qr QueryResponse
		status, err := soakDo(http.MethodPost, base+"/query", queryReq, &qr)
		if err != nil {
			return fmt.Sprintf("transport error: %v", err)
		}
		if status != http.StatusOK {
			return fmt.Sprintf("status %d", status)
		}
		if len(qr.Answers) != 1 {
			return fmt.Sprintf("%d answers", len(qr.Answers))
		}
		return qr.Answers[0].Prob
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Readers: every response must be one of the two legal states —
	// whichever generation it was computed against — never a blend.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readerIters; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					if p := queryProb(); p != probWith && p != probWithout {
						report("reader %d: query returned %q, want %q or %q", r, p, probWith, probWithout)
						return
					}
				case 1:
					var mr MarginalsResponse
					status, err := soakDo(http.MethodPost, base+"/marginals",
						MarginalsRequest{Generator: "ur", Mode: "approx", Seed: 5, MaxSamples: 500, Workers: 2}, &mr)
					if err != nil || status != http.StatusOK {
						report("reader %d: marginals status %d (%v)", r, status, err)
						return
					}
					if n := len(mr.Marginals); n != 5 && n != 6 {
						report("reader %d: marginals for %d facts, want 5 or 6", r, n)
						return
					}
					for _, m := range mr.Marginals {
						if m.Value < 0 || m.Value > 1 {
							report("reader %d: marginal %v outside [0,1]", r, m.Value)
							return
						}
					}
				case 2:
					var br BatchResponse
					status, err := soakDo(http.MethodPost, base+"/batch",
						BatchRequest{Queries: []QueryRequest{queryReq, {Generator: "us", Mode: "exact", Query: "Ans() :- Emp(x, 'Hot')"}}}, &br)
					if err != nil || status != http.StatusOK || len(br.Results) != 2 {
						report("reader %d: batch status %d, %d results (%v)", r, status, len(br.Results), err)
						return
					}
					for _, res := range br.Results {
						if res.Status != http.StatusOK || len(res.Result.Answers) != 1 {
							report("reader %d: batch element status %d", r, res.Status)
							return
						}
						want := legal["ur"]
						if res.Result.Generator == "M^us" {
							want = legal["us"]
						}
						if p := res.Result.Answers[0].Prob; p != want[0] && p != want[1] {
							report("reader %d: batch element (%s) returned %q, want %q or %q",
								r, res.Result.Generator, p, want[0], want[1])
							return
						}
					}
				case 3:
					var cr CountResponse
					status, err := soakDo(http.MethodPost, base+"/repairs/count", CountRequest{}, &cr)
					if err != nil || status != http.StatusOK {
						report("reader %d: count status %d (%v)", r, status, err)
						return
					}
					// 3·1·3 block outcomes without Hot, 4·1·3 with.
					if cr.Count != "9" && cr.Count != "12" {
						report("reader %d: count %q, want 9 or 12", r, cr.Count)
						return
					}
				}
			}
		}(r)
	}

	// The single writer: toggle the hot fact, asserting read-your-write
	// coherence through the generation-keyed cache after every commit.
	writerFailed := false
	for i := 0; i < iterations && !writerFailed; i++ {
		var ins FactMutationResponse
		if status := do(t, http.MethodPost, base+"/facts", InsertFactRequest{Fact: "Emp(1,Hot)"}, &ins); status != http.StatusOK {
			t.Errorf("iteration %d: insert status %d", i, status)
			break
		}
		if p := queryProb(); p != probWith {
			t.Errorf("iteration %d: query after insert returned %q, want %q (stale generation served)", i, p, probWith)
			writerFailed = true
		}
		var del FactMutationResponse
		if status := do(t, http.MethodDelete, fmt.Sprintf("%s/facts/%d", base, ins.Index), nil, &del); status != http.StatusOK {
			t.Errorf("iteration %d: delete status %d", i, status)
			break
		}
		if del.Fact != "Emp(1,Hot)" {
			t.Errorf("iteration %d: deleted %q at index %d, want the hot fact", i, del.Fact, ins.Index)
			break
		}
		if p := queryProb(); p != probWithout {
			t.Errorf("iteration %d: query after delete returned %q, want %q (stale generation served)", i, p, probWithout)
			writerFailed = true
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
