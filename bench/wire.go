package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// The benchmark speaks the public HTTP API through its own copies of
// the wire types, so the server sees exactly what any client sends.

type registerRequest struct {
	ID    string `json:"id"`
	Facts string `json:"facts"`
	FDs   string `json:"fds"`
}

type queryRequest struct {
	Generator  string  `json:"generator"`
	Singleton  bool    `json:"singleton,omitempty"`
	Mode       string  `json:"mode"`
	Query      string  `json:"query"`
	Tuple      string  `json:"tuple,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
	Workers    int     `json:"workers,omitempty"`
}

type batchRequest struct {
	Queries []queryRequest `json:"queries"`
}

type countRequest struct {
	Sequences bool `json:"sequences,omitempty"`
}

type marginalsRequest struct {
	Generator string `json:"generator"`
	Mode      string `json:"mode"`
}

type insertRequest struct {
	Fact string `json:"fact"`
}

type answer struct {
	Tuple   []string `json:"tuple"`
	Prob    string   `json:"prob"`
	Value   float64  `json:"value"`
	Samples int      `json:"samples"`
}

// cost is the per-request accounting every query, count and marginals
// response embeds.
type cost struct {
	Draws       int64   `json:"draws"`
	ReusedDraws int64   `json:"reused_draws"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	Cached      bool    `json:"cached"`
}

type queryResponse struct {
	Answers []answer `json:"answers"`
	Cost    *cost    `json:"cost"`
}

type batchResponse struct {
	Results []struct {
		Status int            `json:"status"`
		Result *queryResponse `json:"result"`
		Error  string         `json:"error"`
	} `json:"results"`
}

type countResponse struct {
	Count string `json:"count"`
	Cost  *cost  `json:"cost"`
}

type marginalsResponse struct {
	Marginals []struct {
		Fact string `json:"fact"`
		Prob string `json:"prob"`
	} `json:"marginals"`
	Cost *cost `json:"cost"`
}

type mutationResponse struct {
	Index int `json:"index"`
}

// mustJSON encodes a request body the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// exactAnswers renders exact answers canonically — tuples sorted, each
// with its rational — so a response compares to the expected answer as
// one string.
func exactAnswers(as []answer) string {
	lines := make([]string, len(as))
	for i, a := range as {
		lines[i] = strings.Join(a.Tuple, ",") + "=" + a.Prob
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

// estimate is one approximate answer's target: the estimate must land
// within ε·p of the true probability p for the run's envelope share.
type estimate struct {
	p, eps float64
}

func (e estimate) within(v float64) bool {
	return math.Abs(v-e.p) <= e.eps*e.p
}

// errWrong marks a wrong exact answer: it counts as a failed request
// and fails the run's correctness gate.
type errWrong struct{ got, want string }

func (e *errWrong) Error() string {
	return fmt.Sprintf("wrong exact answer: got %q, want %q", e.got, e.want)
}

// queryCheck adapts a check of a decoded query response to a request
// check.
func queryCheck(f func(*queryResponse, *stats) error) checkFunc {
	return func(b []byte, _ int64, st *stats) (*cost, error) {
		var r queryResponse
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, err
		}
		return r.Cost, f(&r, st)
	}
}
