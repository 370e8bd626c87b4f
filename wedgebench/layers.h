// Per-layer readings for the traced run. Node counters are copied inside
// closures posted to each node's own executor (the stats structs are
// plain fields owned by that thread); the lsmerkle/log replay runs the
// same way against the live edge state once the load has drained. The
// wire and crypto timings call those modules' public functions directly.

#pragma once

#include <cstdint>
#include <vector>

#include "api/store.h"
#include "lsmerkle/kv.h"
#include "lsmerkle/verifier_cache.h"
#include "runtime/transport.h"

namespace wedgebench {

struct NodeCounters {
  uint64_t blocks_formed = 0;
  uint64_t entries_accepted = 0;
  uint64_t certify_retries = 0;
  uint64_t merges = 0;
  uint64_t noop_merges = 0;
  uint64_t certified_blocks = 0;
  uint64_t duplicate_certifies = 0;
  uint64_t verification_failures = 0;
  wedge::VerifierCache::Stats cache;
  wedge::TransportStats transport;
  wedge::AsyncStats async;
};

NodeCounters ReadCounters(wedge::Store& store);

/// True when no edge has a merge in flight or due.
bool CompactionIdle(wedge::Store& store);

struct ReplayTimings {
  std::vector<double> assemble_get_us;
  std::vector<double> assemble_scan_us;
  std::vector<double> verify_get_cold_us;
  std::vector<double> verify_get_warm_us;
  std::vector<double> verify_scan_us;
  std::vector<double> get_proof_kb;
  std::vector<double> block_digest_us;
  uint64_t l0_units = 0;
  uint64_t pages = 0;
  uint64_t verify_errors = 0;
};

/// Replays `get_keys` and the scans starting at `scan_los` through the
/// edge's proof assembly and the client-side verifiers, on each owning
/// edge's executor, and digests that edge's most recent logged blocks.
ReplayTimings ReplayLsmerkle(wedge::Store& store,
                             const std::vector<wedge::Key>& get_keys,
                             const std::vector<wedge::Key>& scan_los,
                             wedge::Key scan_span,
                             const wedge::VerifierCache::Limits& limits);

struct CryptoTimings {
  double sha256_mb_s = 0;
  double sign_us = 0;
  double verify_us = 0;
  double seal_us = 0;
  double open_us = 0;
  /// Sealed envelopes that failed to open again; must be 0.
  uint64_t open_errors = 0;
};

/// Times SHA-256 throughput, Signer::Sign / KeyStore::Verify over one
/// put entry, and SessionSealer::Seal / SessionOpener::Open of one put
/// request plus one `response_bytes` get response, each as the median of
/// several batches.
CryptoTimings TimeCrypto(size_t response_bytes);

}  // namespace wedgebench
