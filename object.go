package cmo

import "cmo/internal/naim"

// LLO object artifact keys. The codec itself lives in
// internal/backend — the same name-symbolic encoding travels between
// the session repository and the build (the object cache) and between
// a dispatching build and a remote worker (the /backend exchange), so
// there is exactly one set of bytes to reason about. This file keeps
// only what the repository side adds: the content-addressed key.

// partitionBundleKey scopes a cached partition bundle — every object
// of one backend partition in one blob, keyed by the deterministic
// partition fingerprint (which already covers the toolchain, the
// options fingerprint, the partition count and index, and every
// member's name, tier, and post-HLO body hash). The bundle is the
// repository's only LLO object record: a clean partition replays from
// one read, and any member's edit moves its whole partition's key.
func partitionBundleKey(fp string) naim.Key {
	return naim.KeyOfStrings("cmo/part/v1", fp)
}
