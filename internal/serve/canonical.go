package serve

import "fmt"

// CanonicalKey computes the canonical cache key a partreed backend would
// use for the given /v1 request: it runs the engine's own parse step —
// the one its handler runs (decode, validate, normalize: unit-sum weight
// scaling, grammar resolution, then hash). Exported for the cluster
// gateway, which routes on this key so that equivalent requests —
// whatever their JSON spelling or weight scale — always land on the same
// shard and concentrate that shard's LRU hits.
//
// The path must be one of the /v1 endpoints; the error for an undecodable
// or invalid body is the same structured *apiError the backend would
// reject it with (the gateway falls back to raw-body routing and lets the
// backend produce the 400).
func CanonicalKey(path string, body []byte, lim Limits) (string, error) {
	for _, e := range engineTable {
		if _, p := e.route(); p == path {
			lim.setDefaults()
			key, ae := e.canonicalKey(body, lim)
			if ae != nil {
				return "", ae
			}
			return key, nil
		}
	}
	return "", fmt.Errorf("serve: no canonical key for path %q", path)
}
