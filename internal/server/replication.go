package server

// Backend-to-backend replication: the serving-tier half of the cluster
// layer. Its bytes are package store's record frames, the ones the WAL
// journals. Every live instance exposes a generation-sequenced feed,
// GET /v1/replication/instances/{id}?after=GEN, whose
// X-Replication-Gen header names the generation gen it brings a
// follower to, whose X-Replication-Lineage header names the history
// that generation counts in, and whose body is:
//
//   - the insert/delete frames the owner journalled for (after, gen],
//     when the bounded per-instance frame tail still covers that window
//     (servers without a store keep the same tail);
//   - otherwise one register frame carrying the instance at gen as a v2
//     payload, a full-state sync;
//   - empty, for a follower already at gen.
//
// A follower backend pulls the feed with POST /v1/replication/sync and
// decodes it with the store's frame decoder — a full state in place,
// its columns aliasing the received bytes. Generations only grow within
// one lineage; every install (registration, promotion, and the boot
// restore of a restarted owner, which starts again at generation 1)
// mints a new one, and a replica of another lineage full-syncs. It
// maintains a warm replica in a map SEPARATE from the live registry:
// replicas never serve queries, never appear in listings, and never
// journal — until POST /v1/replication/promote installs one into the
// registry with its generation intact, journalling the takeover so it
// survives a restart.
//
// Replication applies the SAME copy-on-write mutations the owner
// applied (applyRecord, in generation order), so a
// promoted replica's exact query answers are big.Rat-bitwise equal to
// the owner's — the property the cluster failover audit checks. A
// torn, checksum-failing or foreign frame, or a gap in the window,
// re-seeds the replica from the full state instead.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	ocqa "repro"
	"repro/internal/store"
)

// replTailMax bounds each live instance's in-memory frame tail. A
// follower that lags by more than this many mutations falls back to a
// full-state sync instead of an incremental one.
const replTailMax = 256

// replGenHeader carries the generation a feed brings its follower to,
// replLineageHeader the lineage that generation counts in.
const (
	replGenHeader     = "X-Replication-Gen"
	replLineageHeader = "X-Replication-Lineage"
)

// maxFeedBytes bounds the feed body a follower buffers.
const maxFeedBytes = 1 << 30

// ReplInstanceInfo is one instance's replication cursor.
type ReplInstanceInfo struct {
	ID  string `json:"id"`
	Gen int64  `json:"gen"`
}

// ReplSyncRequest asks this backend to pull one instance from a source
// backend and bring its local replica up to the source's generation.
type ReplSyncRequest struct {
	ID string `json:"id"`
	// Source is the owning backend's base URL, e.g. "http://127.0.0.1:8081".
	Source string `json:"source"`
}

// ReplSyncResponse reports the replica's state after the pull.
type ReplSyncResponse struct {
	ID  string `json:"id"`
	Gen int64  `json:"gen"`
	// Full reports whether the sync fell back to a full-state transfer.
	Full bool `json:"full"`
	// Applied counts the mutations this sync applied incrementally.
	Applied int `json:"applied"`
}

// ReplPromoteRequest promotes this backend's replica of ID into its
// live registry.
type ReplPromoteRequest struct {
	ID string `json:"id"`
}

// ReplPromoteResponse describes the promoted instance.
type ReplPromoteResponse struct {
	ID    string `json:"id"`
	Gen   int64  `json:"gen"`
	Facts int    `json:"facts"`
}

// replicaEntry is one warm follower copy: the same prepared artifacts a
// live entry holds, advanced op-by-op in the owner's generation order,
// but outside the registry — it serves no queries until promoted.
type replicaEntry struct {
	id       string
	name     string
	prepared *ocqa.Instance
	created  time.Time
	gen      int64
	lineage  string
}

// tailFrame is one committed mutation: the generation it produced and
// its record frame, byte for byte as journalled.
type tailFrame struct {
	gen   int64
	frame []byte
}

// replState is the server's replication bookkeeping: per-live-instance
// frame tails (the feed's incremental source) and the replicas this
// backend follows for other backends.
type replState struct {
	mu       sync.Mutex
	tails    map[string][]tailFrame
	replicas map[string]*replicaEntry
}

func newReplState() *replState {
	return &replState{tails: make(map[string][]tailFrame), replicas: make(map[string]*replicaEntry)}
}

// appendFrame records one committed mutation in the instance's tail,
// keeping only the most recent replTailMax (older windows fall back to
// full sync).
func (rs *replState) appendFrame(id string, gen int64, frame []byte) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	tail := append(rs.tails[id], tailFrame{gen, frame})
	if len(tail) > replTailMax {
		tail = tail[len(tail)-replTailMax:]
	}
	rs.tails[id] = tail
}

func (rs *replState) dropTail(id string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	delete(rs.tails, id)
}

// framesRange returns the concatenated frames covering exactly
// (after, upto], or ok=false when the tail no longer holds that window
// (full sync required). Frames newer than upto — a mutation that
// landed after the caller snapshotted its entry — are excluded, keeping
// the feed consistent with the entry it describes.
func (rs *replState) framesRange(id string, after, upto int64) ([]byte, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	next := after + 1
	var out []byte
	for _, tf := range rs.tails[id] {
		if tf.gen <= after {
			continue
		}
		if tf.gen > upto {
			break
		}
		if tf.gen != next {
			return nil, false
		}
		out = append(out, tf.frame...)
		next++
	}
	return out, next == upto+1
}

func (rs *replState) replica(id string) (*replicaEntry, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	re, ok := rs.replicas[id]
	return re, ok
}

func (rs *replState) setReplica(re *replicaEntry) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.replicas[re.id] = re
}

// takeReplica removes and returns the replica (promotion consumes it).
func (rs *replState) takeReplica(id string) (*replicaEntry, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	re, ok := rs.replicas[id]
	if ok {
		delete(rs.replicas, id)
	}
	return re, ok
}

func (rs *replState) listReplicas() []ReplInstanceInfo {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]ReplInstanceInfo, 0, len(rs.replicas))
	for _, re := range rs.replicas {
		out = append(out, ReplInstanceInfo{ID: re.id, Gen: re.gen})
	}
	return out
}

// --- owner-side handlers ----------------------------------------------------

// handleReplInstances lists the live instances' replication cursors.
func (s *Server) handleReplInstances(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := make([]ReplInstanceInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, ReplInstanceInfo{ID: e.id, Gen: e.gen})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReplFeed serves one instance's replication feed.
func (s *Server) handleReplFeed(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var after int64
	if he := watchInt64(r, "after", &after); he != nil {
		s.writeError(w, he)
		return
	}
	// Entries are immutable (mutations install a successor), so e.gen
	// and e.prepared agree, and framesRange leaves out any frame newer
	// than e.gen.
	var body []byte
	if after < e.gen {
		var ok bool
		if body, ok = s.repl.framesRange(e.id, after, e.gen); !ok {
			body = store.Record{Kind: store.OpRegister, ID: e.id, Name: e.name, Created: e.created,
				DB: e.prepared.DB(), Sigma: e.prepared.Sigma()}.Frame()
		}
	}
	s.met.replFeeds.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(replGenHeader, strconv.FormatInt(e.gen, 10))
	w.Header().Set(replLineageHeader, e.lineage)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// --- follower-side handlers -------------------------------------------------

// replClient is the backend-to-backend HTTP client. The timeout bounds
// a feed pull end-to-end; individual requests also carry the inbound
// request's context.
var replClient = &http.Client{Timeout: 30 * time.Second}

// feed is one pulled replication feed: the generation it reaches, the
// lineage that generation counts in, and its frames.
type feed struct {
	gen     int64
	lineage string
	body    []byte
}

// fetchFeed pulls one instance's feed from a source backend, its frames
// read into a buffer of exactly their size, which a full state's
// columns then alias.
func fetchFeed(r *http.Request, source, id string, after int64) (feed, error) {
	u := fmt.Sprintf("%s/v1/replication/instances/%s?after=%d", source, url.PathEscape(id), after)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		return feed{}, err
	}
	res, err := replClient.Do(req)
	if err != nil {
		return feed{}, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		var eb errorResponse
		_ = json.NewDecoder(res.Body).Decode(&eb)
		return feed{}, fmt.Errorf("source %s: status %d: %s", source, res.StatusCode, eb.Error)
	}
	f := feed{lineage: res.Header.Get(replLineageHeader)}
	if f.gen, err = strconv.ParseInt(res.Header.Get(replGenHeader), 10, 64); err != nil {
		return feed{}, fmt.Errorf("feed generation: %w", err)
	}
	if res.ContentLength < 0 || res.ContentLength > maxFeedBytes {
		return feed{}, fmt.Errorf("feed length %d unusable", res.ContentLength)
	}
	f.body = make([]byte, res.ContentLength)
	if _, err := io.ReadFull(res.Body, f.body); err != nil {
		return feed{}, fmt.Errorf("reading feed: %w", err)
	}
	return f, nil
}

// isFullFeed reports whether decoded feed records are a full state:
// exactly one register record.
func isFullFeed(recs []store.Record) bool {
	return len(recs) == 1 && recs[0].Kind == store.OpRegister
}

// handleReplSync pulls one instance from a source backend into this
// backend's replica map, incrementally when the local replica is of the
// source's lineage and its generation is still inside the source's
// frame tail, by full-state transfer otherwise. Syncs are engine work
// (Prepare, ApplyInsert), so they hold a compute-semaphore slot.
func (s *Server) handleReplSync(w http.ResponseWriter, r *http.Request) {
	var req ReplSyncRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	if req.ID == "" || req.Source == "" {
		s.writeError(w, badRequest("\"id\" and \"source\" are both required"))
		return
	}
	if _, live := s.reg.get(req.ID); live {
		s.writeError(w, &httpError{status: http.StatusConflict,
			msg: "instance " + strconv.Quote(req.ID) + " is served live by this backend; a backend cannot follow an instance it owns"})
		return
	}
	s.compute <- struct{}{}
	defer func() { <-s.compute }()

	var after int64
	cur, hasCur := s.repl.replica(req.ID)
	if hasCur {
		after = cur.gen
	}
	f, err := fetchFeed(r, req.Source, req.ID, after)
	if err != nil {
		s.writeError(w, &httpError{status: http.StatusBadGateway, msg: fmt.Sprintf("pulling feed: %v", err)})
		return
	}
	out := ReplSyncResponse{ID: req.ID, Gen: after}
	// Generations order states only within one lineage: a source that
	// restarted, or an id installed afresh, counts a history the replica
	// never saw, whatever its generation.
	sameLineage := hasCur && f.lineage == cur.lineage
	if sameLineage && f.gen <= after {
		writeJSON(w, http.StatusOK, out) // already caught up
		return
	}
	recs, err := store.DecodeFrames(f.body)
	if sameLineage && err == nil && !isFullFeed(recs) {
		if next, err := applyRecords(cur, recs, f.gen); err == nil {
			s.repl.setReplica(next)
			s.met.replApplied.Add(int64(len(recs)))
			out.Gen, out.Applied = next.gen, len(recs)
			writeJSON(w, http.StatusOK, out)
			return
		}
	}
	if err != nil || !isFullFeed(recs) {
		// A torn, corrupt or foreign frame, a broken window, another
		// lineage, or no replica to apply it to: a replica must never hold
		// a state the owner never held, so re-seed it from the full state.
		if f, err = fetchFeed(r, req.Source, req.ID, 0); err != nil {
			s.writeError(w, &httpError{status: http.StatusBadGateway, msg: fmt.Sprintf("pulling full feed: %v", err)})
			return
		}
		recs, err = store.DecodeFrames(f.body)
	}
	if err == nil && (!isFullFeed(recs) || recs[0].ID != req.ID) {
		err = fmt.Errorf("want one register frame for %q", req.ID)
	}
	if err != nil {
		s.writeError(w, &httpError{status: http.StatusBadGateway, msg: fmt.Sprintf("rebuilding %q from full feed: %v", req.ID, err)})
		return
	}
	rec := recs[0]
	// Prepare eagerly: the whole point of a warm follower is that
	// failover does not pay a cold block-decomposition build.
	re := &replicaEntry{id: rec.ID, name: rec.Name, prepared: ocqa.NewInstance(rec.DB, rec.Sigma).Prepare(), created: rec.Created, gen: f.gen, lineage: f.lineage}
	s.repl.setReplica(re)
	s.met.replFullSyncs.Inc()
	out.Gen, out.Full = re.gen, true
	writeJSON(w, http.StatusOK, out)
}

// applyRecords advances a replica through an incremental feed, which
// must hold exactly this instance's mutations (cur.gen, gen], with the
// owner's own applyRecord. Any mismatch or apply failure aborts (the
// caller falls back to a full sync).
func applyRecords(cur *replicaEntry, recs []store.Record, gen int64) (*replicaEntry, error) {
	if int64(len(recs)) != gen-cur.gen {
		return nil, fmt.Errorf("%d records do not span generations (%d, %d]", len(recs), cur.gen, gen)
	}
	p := cur.prepared
	for i, rec := range recs {
		if rec.ID != cur.id {
			return nil, fmt.Errorf("op gen %d: record of instance %q", cur.gen+int64(i)+1, rec.ID)
		}
		next, _, err := applyRecord(p, rec)
		if err != nil {
			return nil, fmt.Errorf("op gen %d: %w", cur.gen+int64(i)+1, err)
		}
		p = next
	}
	return &replicaEntry{id: cur.id, name: cur.name, prepared: p, created: cur.created, gen: gen, lineage: cur.lineage}, nil
}

// handleReplReplicas lists this backend's warm replicas.
func (s *Server) handleReplReplicas(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.repl.listReplicas())
}

// handleReplPromote installs a warm replica into the live registry with
// its generation intact, journalling the takeover. From this response
// on, the backend serves the instance's queries and mutations exactly
// as if it had owned it all along; result-cache keys stay monotone
// because the generation carried over.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	var req ReplPromoteRequest
	if he := s.decodeJSON(w, r, &req); he != nil {
		s.writeError(w, he)
		return
	}
	re, ok := s.repl.takeReplica(req.ID)
	if !ok {
		s.writeError(w, &httpError{status: http.StatusNotFound, msg: "no replica of instance " + strconv.Quote(req.ID) + " on this backend"})
		return
	}
	e, evicted, err := s.reg.install(re.id, re.name, re.prepared, re.created, re.gen)
	if err != nil {
		s.repl.setReplica(re) // promotion failed; keep following
		s.writeError(w, &httpError{status: http.StatusConflict, msg: err.Error()})
		return
	}
	if s.store != nil {
		// Journal the takeover so a restart replays the instance. The
		// journalled state is the promoted generation's database; earlier
		// generations never existed on this backend. A record that cannot
		// be written takes the entry back out and keeps the replica, as
		// a failed registration does, so an acknowledged promotion
		// survives a restart. The evictions are journalled either way:
		// they left the registry.
		if err := s.store.LogRegister(e.id, e.name, e.created, re.prepared.DB(), re.prepared.Sigma()); err != nil {
			_ = s.reg.remove(e.id, nil) // an eviction may have taken it already
			s.forget(e.id)
			s.repl.setReplica(re)
			s.dropEvicted(evicted...)
			s.writeError(w, &httpError{status: http.StatusInternalServerError, msg: fmt.Sprintf("journalling promotion: %v", err)})
			return
		}
	}
	s.dropEvicted(evicted...)
	// Drop any stale cached results under this id from a previous
	// ownership period of this process.
	s.cache.invalidate(e.id)
	s.met.replPromotes.Inc()
	writeJSON(w, http.StatusOK, ReplPromoteResponse{ID: e.id, Gen: e.gen, Facts: re.prepared.DB().Len()})
}
