package ocqa

// CachedQueries reports how many query fingerprints the instance's
// query cache holds.
func CachedQueries(in *Instance) int {
	in.queryMu.Lock()
	defer in.queryMu.Unlock()
	return len(in.queries)
}
