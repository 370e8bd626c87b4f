#include "layers.h"

#include <algorithm>
#include <future>
#include <utility>

#include "core/deployment.h"
#include "core/read_service.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "lsmerkle/read_proof.h"
#include "lsmerkle/scan_proof.h"
#include "stats.h"
#include "wire/protocol.h"
#include "wire/session.h"
#include "workload.h"

namespace wedgebench {
namespace {

using wedge::Deployment;
using wedge::EdgeNode;
using wedge::ExecRole;
using wedge::Key;
using wedge::Store;

/// Runs `fn` on the executor that owns node `id` and returns its result.
template <typename F>
auto OnNode(Store& store, wedge::NodeId id, ExecRole role, F fn)
    -> decltype(fn()) {
  std::promise<decltype(fn())> done;
  auto result = done.get_future();
  store.runtime().ExecutorFor(id, role)->Post(
      [&] { done.set_value(fn()); });
  return result.get();
}

double UsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e3; }

/// Median over `batches` batches of the mean time per call of `fn`,
/// called `per_batch` times in each batch, in microseconds.
template <typename F>
double MedianCallUs(int batches, int per_batch, F fn) {
  std::vector<double> means;
  for (int b = 0; b < batches; ++b) {
    const int64_t t = NowNs();
    for (int i = 0; i < per_batch; ++i) fn(i);
    means.push_back(UsSince(t) / per_batch);
  }
  return Median(means);
}

}  // namespace

NodeCounters ReadCounters(Store& store) {
  NodeCounters c;
  Deployment& d = store.wedge();
  for (size_t i = 0; i < d.edge_count(); ++i) {
    EdgeNode& e = d.edge(i);
    const wedge::EdgeStats s =
        OnNode(store, e.id(), ExecRole::kDedicated, [&e] { return e.stats(); });
    c.blocks_formed += s.blocks_formed;
    c.entries_accepted += s.entries_accepted;
    c.certify_retries += s.certify_retries;
    c.merges += s.merges_completed;
    c.noop_merges += s.noop_merges;
  }
  wedge::CloudNode& cloud = d.cloud();
  const wedge::CloudStats cs = OnNode(store, cloud.id(), ExecRole::kDedicated,
                                      [&cloud] { return cloud.stats(); });
  c.certified_blocks = cs.certified_blocks;
  c.duplicate_certifies = cs.duplicate_certifies;
  for (size_t i = 0; i < d.client_count(); ++i) {
    wedge::WedgeClient& cl = d.client(i);
    const auto [stats, cache] =
        OnNode(store, cl.id(), ExecRole::kPooled, [&cl] {
          return std::make_pair(cl.stats(), cl.verifier_cache().stats());
        });
    c.verification_failures += stats.verification_failures;
    c.cache.root_hits += cache.root_hits;
    c.cache.root_misses += cache.root_misses;
    c.cache.block_hits += cache.block_hits;
    c.cache.block_misses += cache.block_misses;
    c.cache.part_hits += cache.part_hits;
    c.cache.part_misses += cache.part_misses;
    c.cache.run_hits += cache.run_hits;
    c.cache.run_misses += cache.run_misses;
  }
  c.transport = store.stats().transport;
  c.async = store.async_stats();
  return c;
}

bool CompactionIdle(Store& store) {
  Deployment& d = store.wedge();
  for (size_t i = 0; i < d.edge_count(); ++i) {
    EdgeNode& e = d.edge(i);
    const bool idle = OnNode(store, e.id(), ExecRole::kDedicated, [&e] {
      return !e.lsm().merge_in_flight() && !e.lsm().NeedsMerge().has_value();
    });
    if (!idle) return false;
  }
  return true;
}

ReplayTimings ReplayLsmerkle(Store& store, const std::vector<Key>& get_keys,
                             const std::vector<Key>& scan_los, Key scan_span,
                             const wedge::VerifierCache::Limits& limits) {
  ReplayTimings out;
  Deployment& d = store.wedge();
  const wedge::KeyStore& keystore = d.keystore();
  for (size_t shard = 0; shard < d.edge_count(); ++shard) {
    EdgeNode& e = d.edge(shard);
    std::vector<Key> mine;
    for (Key k : get_keys) {
      if (store.partitioner().ShardOf(k) == shard) mine.push_back(k);
    }
    OnNode(store, e.id(), ExecRole::kDedicated, [&] {
      const wedge::LsmerkleTree& lsm = e.lsm();
      const wedge::EdgeLog& log = e.log();
      for (Key k : mine) {
        int64_t t = NowNs();
        const wedge::GetResponseBody resp = wedge::AssembleGetResponse(lsm, log, k);
        out.assemble_get_us.push_back(UsSince(t));
        out.get_proof_kb.push_back(resp.ByteSize() / 1024.0);
        wedge::VerifierCache cache(limits);
        wedge::GetVerifyOptions opts;
        opts.cache = &cache;
        t = NowNs();
        auto cold = wedge::VerifyGetResponse(keystore, e.id(), k, resp, opts);
        out.verify_get_cold_us.push_back(UsSince(t));
        t = NowNs();
        auto warm = wedge::VerifyGetResponse(keystore, e.id(), k, resp, opts);
        out.verify_get_warm_us.push_back(UsSince(t));
        if (!cold.ok() || !warm.ok() || !cold->found) out.verify_errors++;
      }
      for (Key lo : scan_los) {
        const Key hi = lo + scan_span - 1;
        int64_t t = NowNs();
        const wedge::ScanResponseBody resp =
            wedge::AssembleScanResponse(lsm, log, lo, hi);
        out.assemble_scan_us.push_back(UsSince(t));
        wedge::VerifierCache cache(limits);
        wedge::GetVerifyOptions opts;
        opts.cache = &cache;
        t = NowNs();
        auto v = wedge::VerifyScanResponse(keystore, e.id(), lo, hi, resp, opts);
        out.verify_scan_us.push_back(UsSince(t));
        if (!v.ok()) out.verify_errors++;
      }
      const wedge::BlockId end = log.size();
      const wedge::BlockId begin =
          std::max<wedge::BlockId>(log.base(), end > 64 ? end - 64 : 0);
      for (wedge::BlockId bid = begin; bid < end; ++bid) {
        auto block = log.GetBlock(bid);
        if (!block.ok()) continue;
        const int64_t t = NowNs();
        const wedge::Digest256 digest = block->Digest();
        out.block_digest_us.push_back(UsSince(t));
        (void)digest;
      }
      out.l0_units += lsm.l0_count();
      for (size_t level = 1; level < lsm.level_count(); ++level) {
        out.pages += lsm.level(level).page_count();
      }
      return true;
    });
  }
  return out;
}

CryptoTimings TimeCrypto(size_t response_bytes) {
  CryptoTimings out;
  const wedge::Bytes big(1 << 20, 0xa5);
  std::vector<double> mb_s;
  for (int b = 0; b < 5; ++b) {
    const int64_t t = NowNs();
    for (int i = 0; i < 16; ++i) (void)wedge::Sha256::Hash(wedge::Slice(big));
    mb_s.push_back(16.0 / ((NowNs() - t) / 1e9));
  }
  out.sha256_mb_s = Median(mb_s);

  // One put as a client sends it: a signed entry in an add request.
  wedge::KeyStore keystore(7);
  const wedge::Signer sender = keystore.Register(wedge::Role::kClient, "c");
  const wedge::Signer receiver = keystore.Register(wedge::Role::kEdge, "e");
  const wedge::Bytes value(kValueBytes, 0x5c);
  wedge::AddRequest put;
  put.req_id = 1;
  put.entries.push_back(
      wedge::Entry::Make(sender, 1, wedge::EncodePutPayload(7, value)));
  const wedge::Bytes signed_bytes = put.entries[0].SigningBytes();
  const wedge::Signature sig = sender.Sign(signed_bytes);
  out.sign_us = MedianCallUs(5, 400, [&](int) {
    (void)sender.Sign(signed_bytes);
  });
  out.verify_us = MedianCallUs(5, 400, [&](int) {
    (void)keystore.Verify(sig, signed_bytes);
  });

  // Seal and open cost per op: one put request plus one get response of
  // the size the replay saw.
  constexpr int kBatches = 5, kPerBatch = 200;
  const wedge::Bytes request = put.Encode();
  const wedge::Bytes response(std::max<size_t>(response_bytes, 1), 0x3c);
  wedge::SessionSealer sealer(sender);
  wedge::SessionOpener opener(&keystore, receiver.id());
  std::vector<wedge::Bytes> sealed(2 * kBatches * kPerBatch);
  size_t next = 0;
  out.seal_us = MedianCallUs(kBatches, kPerBatch, [&](int) {
    sealed[next++] =
        sealer.Seal(receiver.id(), wedge::MsgType::kPutRequest, request);
    sealed[next++] =
        sealer.Seal(receiver.id(), wedge::MsgType::kGetResponse, response);
  });
  next = 0;
  out.open_us = MedianCallUs(kBatches, kPerBatch, [&](int) {
    for (int k = 0; k < 2; ++k) {
      if (!opener.Open(wedge::Slice(sealed[next++])).ok()) out.open_errors++;
    }
  });
  return out;
}

}  // namespace wedgebench
