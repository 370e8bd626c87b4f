// Tests for the LSMerkle index: pages and range invariants, levels,
// merge semantics, the edge-side tree, and get-proof verification
// including adversarial (lying edge) cases.

#include <gtest/gtest.h>

#include <string>

#include "crypto/signature.h"
#include "log/block_builder.h"
#include "lsmerkle/kv.h"
#include "lsmerkle/lsmerkle_tree.h"
#include "lsmerkle/merge.h"
#include "lsmerkle/page.h"
#include "lsmerkle/read_proof.h"
#include "lsmerkle/root_certificate.h"

namespace wedge {
namespace {

Bytes Val(const std::string& s) { return Bytes(s.begin(), s.end()); }

KvPair Pair(Key k, const std::string& v, uint64_t version) {
  return KvPair{k, Val(v), version};
}

// ------------------------------------------------------------------- Page

TEST(PageTest, FindBinarySearch) {
  Page p;
  p.min_key = 0;
  p.max_key = kMaxKey;
  p.pairs = {Pair(2, "a", 1), Pair(5, "b", 2), Pair(9, "c", 3)};
  EXPECT_EQ(p.Find(5)->value, Val("b"));
  EXPECT_FALSE(p.Find(4).has_value());
  EXPECT_FALSE(p.Find(10).has_value());
  EXPECT_EQ(p.Find(2)->version, 1u);
}

TEST(PageTest, WellFormedChecks) {
  Page p;
  p.min_key = 5;
  p.max_key = 10;
  p.pairs = {Pair(6, "a", 1), Pair(8, "b", 2)};
  EXPECT_TRUE(p.CheckWellFormed().ok());

  Page out_of_range = p;
  out_of_range.pairs.push_back(Pair(11, "x", 3));
  EXPECT_TRUE(out_of_range.CheckWellFormed().IsCorruption());

  Page unsorted = p;
  std::swap(unsorted.pairs[0], unsorted.pairs[1]);
  EXPECT_TRUE(unsorted.CheckWellFormed().IsCorruption());

  Page inverted;
  inverted.min_key = 10;
  inverted.max_key = 5;
  EXPECT_TRUE(inverted.CheckWellFormed().IsCorruption());
}

TEST(PageTest, CodecRoundTripPreservesDigest) {
  Page p;
  p.min_key = 3;
  p.max_key = 77;
  p.created_at = 123456;
  p.pairs = {Pair(4, "aa", 9), Pair(60, "bb", 11)};
  Decoder dec(p.Encode());
  Page back = *Page::DecodeFrom(&dec);
  EXPECT_EQ(back, p);
  EXPECT_EQ(back.Digest(), p.Digest());
}

TEST(PageTest, RangeInvariantAcrossLevel) {
  Page a, b, c;
  a.min_key = 0;
  a.max_key = 9;
  b.min_key = 10;
  b.max_key = 99;
  c.min_key = 100;
  c.max_key = kMaxKey;
  EXPECT_TRUE(CheckLevelRangeInvariant({a, b, c}).ok());
  EXPECT_TRUE(CheckLevelRangeInvariant({}).ok());

  // Gap.
  Page gap = b;
  gap.min_key = 11;
  EXPECT_TRUE(CheckLevelRangeInvariant({a, gap, c}).IsCorruption());
  // First page must start at 0.
  EXPECT_TRUE(CheckLevelRangeInvariant({b, c}).IsCorruption());
  // Last page must end at infinity.
  EXPECT_TRUE(CheckLevelRangeInvariant({a, b}).IsCorruption());
}

// ------------------------------------------------------------------ Level

TEST(LevelTest, SetPagesBuildsRoot) {
  LevelState level;
  EXPECT_TRUE(level.root().IsZero());

  Page a, b;
  a.min_key = 0;
  a.max_key = 49;
  a.pairs = {Pair(10, "x", 1)};
  b.min_key = 50;
  b.max_key = kMaxKey;
  b.pairs = {Pair(60, "y", 2)};
  ASSERT_TRUE(level.SetPages({a, b}).ok());
  EXPECT_FALSE(level.root().IsZero());
  EXPECT_EQ(level.page_count(), 2u);

  // Page proofs verify against the level root.
  auto proof = *level.ProvePage(1);
  EXPECT_TRUE(MerkleTree::Verify(level.root(), b.Digest(), proof).ok());
}

TEST(LevelTest, FindPageIndexByRange) {
  LevelState level;
  Page a, b, c;
  a.min_key = 0;
  a.max_key = 9;
  b.min_key = 10;
  b.max_key = 99;
  c.min_key = 100;
  c.max_key = kMaxKey;
  ASSERT_TRUE(level.SetPages({a, b, c}).ok());
  EXPECT_EQ(*level.FindPageIndex(0), 0u);
  EXPECT_EQ(*level.FindPageIndex(9), 0u);
  EXPECT_EQ(*level.FindPageIndex(10), 1u);
  EXPECT_EQ(*level.FindPageIndex(55), 1u);
  EXPECT_EQ(*level.FindPageIndex(100), 2u);
  EXPECT_EQ(*level.FindPageIndex(kMaxKey), 2u);
}

TEST(LevelTest, SetPagesRejectsBadTiling) {
  LevelState level;
  Page a;
  a.min_key = 5;  // must be 0
  a.max_key = kMaxKey;
  EXPECT_TRUE(level.SetPages({a}).IsCorruption());
}

// ------------------------------------------------------------------ Merge

TEST(MergeTest, NewerShadowsLower) {
  Page low;
  low.min_key = 0;
  low.max_key = kMaxKey;
  low.pairs = {Pair(1, "old1", 10), Pair(2, "old2", 11)};

  auto merged = *MergeIntoPages({Pair(1, "new1", 100)}, {low}, 100, 0);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].Find(1)->value, Val("new1"));
  EXPECT_EQ(merged[0].Find(2)->value, Val("old2"));
}

TEST(MergeTest, DuplicateKeysInNewerKeepHighestVersion) {
  auto merged = *MergeIntoPages(
      {Pair(7, "v1", 1), Pair(7, "v3", 3), Pair(7, "v2", 2)}, {}, 100, 0);
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0].pairs.size(), 1u);
  EXPECT_EQ(merged[0].Find(7)->value, Val("v3"));
}

TEST(MergeTest, EmptyInputsYieldNoPages) {
  auto merged = *MergeIntoPages({}, {}, 100, 0);
  EXPECT_TRUE(merged.empty());
}

TEST(MergeTest, SplitsIntoTargetSizedPages) {
  std::vector<KvPair> newer;
  for (Key k = 0; k < 25; ++k) newer.push_back(Pair(k * 10, "v", k));
  auto merged = *MergeIntoPages(std::move(newer), {}, 10, 42);
  ASSERT_EQ(merged.size(), 3u);  // 10 + 10 + 5
  EXPECT_EQ(merged[0].pairs.size(), 10u);
  EXPECT_EQ(merged[2].pairs.size(), 5u);
  EXPECT_TRUE(CheckLevelRangeInvariant(merged).ok());
  EXPECT_EQ(merged[0].min_key, kMinKey);
  EXPECT_EQ(merged[2].max_key, kMaxKey);
  for (const auto& p : merged) EXPECT_EQ(p.created_at, 42);
}

TEST(MergeTest, ResultIsSortedAndUnique) {
  std::vector<KvPair> newer = {Pair(5, "a", 50), Pair(3, "b", 51),
                               Pair(5, "c", 52)};
  Page low;
  low.min_key = 0;
  low.max_key = kMaxKey;
  low.pairs = {Pair(3, "old", 1), Pair(4, "keep", 2)};
  auto merged = *MergeIntoPages(std::move(newer), {low}, 100, 0);
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(merged[0].pairs.size(), 3u);
  EXPECT_EQ(merged[0].pairs[0].key, 3u);
  EXPECT_EQ(merged[0].pairs[0].value, Val("b"));
  EXPECT_EQ(merged[0].pairs[1].key, 4u);
  EXPECT_EQ(merged[0].pairs[2].key, 5u);
  EXPECT_EQ(merged[0].pairs[2].value, Val("c"));
}

TEST(MergeTest, PairsFromBlockAssignsVersions) {
  KeyStore ks;
  Signer client = ks.Register(Role::kClient, "c");
  Block b;
  b.id = 3;
  b.entries.push_back(Entry::Make(client, 0, EncodePutPayload(10, Val("x"))));
  b.entries.push_back(Entry::Make(client, 1, EncodePutPayload(20, Val("y"))));
  auto pairs = *PairsFromBlock(b);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].version, MakeVersion(3, 0));
  EXPECT_EQ(pairs[1].version, MakeVersion(3, 1));
  EXPECT_LT(pairs[0].version, pairs[1].version);
}

TEST(MergeTest, PairsFromBlockRejectsGarbage) {
  KeyStore ks;
  Signer client = ks.Register(Role::kClient, "c");
  Block b;
  b.id = 0;
  b.entries.push_back(Entry::Make(client, 0, Bytes{1, 2, 3}));
  EXPECT_FALSE(PairsFromBlock(b).ok());
}

// ---------------------------------------------------------- LsmerkleTree

class LsmerkleTreeTest : public ::testing::Test {
 protected:
  LsmerkleTreeTest()
      : client_(keystore_.Register(Role::kClient, "client")),
        edge_(keystore_.Register(Role::kEdge, "edge")),
        cloud_(keystore_.Register(Role::kCloud, "cloud")),
        tree_(MakeConfig()) {}

  static LsmConfig MakeConfig() {
    LsmConfig cfg;
    cfg.level_thresholds = {2, 2, 4};  // the paper's expository config §V-B
    cfg.target_page_pairs = 4;
    return cfg;
  }

  Block MakePutBlock(BlockId bid, std::vector<std::pair<Key, std::string>> kvs) {
    Block b;
    b.id = bid;
    for (auto& [k, v] : kvs) {
      b.entries.push_back(
          Entry::Make(client_, next_seq_++, EncodePutPayload(k, Val(v))));
    }
    return b;
  }

  /// Simulates the cloud side of a merge from `from` and installs it.
  void DoMerge(size_t from) {
    std::vector<KvPair> newer;
    size_t consumed_l0 = 0;
    if (from == 0) {
      consumed_l0 = tree_.l0_count();
      for (const auto& unit : tree_.l0_units()) {
        for (const auto& p : unit.pairs) newer.push_back(p);
      }
    } else {
      for (const auto& page : tree_.level(from).pages()) {
        for (const auto& p : page.pairs) newer.push_back(p);
      }
    }
    auto merged = *MergeIntoPages(std::move(newer),
                                  tree_.level(from + 1).pages(),
                                  tree_.config().target_page_pairs, 1000);
    // Compute the post-merge roots the way the cloud would.
    LsmerkleTree preview(tree_.config());
    Epoch new_epoch = tree_.epoch() + 1;
    // Install directly; InstallMergeResult recomputes and cross-checks the
    // global root against the certificate.
    std::vector<Digest256> roots = tree_.LevelRoots();
    {
      LevelState tmp;
      ASSERT_TRUE(tmp.SetPages(merged).ok());
      roots[from] = tmp.root();
      if (from > 0) roots[from - 1] = Digest256();
    }
    auto cert = RootCertificate::Make(cloud_, edge_.id(), new_epoch,
                                      ComputeGlobalRoot(new_epoch, roots),
                                      1000);
    ASSERT_TRUE(
        tree_.InstallMergeResult(from, consumed_l0, merged, cert).ok());
  }

  KeyStore keystore_;
  Signer client_;
  Signer edge_;
  Signer cloud_;
  LsmerkleTree tree_;
  SeqNum next_seq_ = 0;
};

TEST_F(LsmerkleTreeTest, EmptyTreeLookupMisses) {
  auto r = tree_.Lookup(42);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(tree_.ApproxPairCount(), 0u);
  EXPECT_FALSE(tree_.NeedsMerge().has_value());
}

TEST_F(LsmerkleTreeTest, L0LookupNewestWins) {
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(0, {{1, "v0"}, {2, "w0"}})).ok());
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(1, {{1, "v1"}})).ok());
  auto r = tree_.Lookup(1);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.pair.value, Val("v1"));
  EXPECT_EQ(r.level, 0u);

  auto r2 = tree_.Lookup(2);
  ASSERT_TRUE(r2.found);
  EXPECT_EQ(r2.pair.value, Val("w0"));
}

TEST_F(LsmerkleTreeTest, LastWriteInSameBlockWins) {
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(0, {{7, "a"}, {7, "b"}})).ok());
  auto r = tree_.Lookup(7);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.pair.value, Val("b"));
}

TEST_F(LsmerkleTreeTest, NeedsMergeAtThreshold) {
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(0, {{1, "a"}})).ok());
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(1, {{2, "b"}})).ok());
  EXPECT_FALSE(tree_.NeedsMerge().has_value());  // threshold is 2, not over
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(2, {{3, "c"}})).ok());
  ASSERT_EQ(tree_.NeedsMerge().value(), 0u);
}

TEST_F(LsmerkleTreeTest, LastLevelOverThresholdNeverProposesMerge) {
  // Overfill the bottom level (threshold 4): with nowhere to merge into
  // it simply grows. Proposing a merge from the last level would be
  // flagged by the cloud as malicious (regression: an honest edge was
  // once punished for exactly this).
  std::vector<Page> pages;
  for (Key i = 0; i < 8; ++i) {
    Page p;
    p.min_key = i == 0 ? kMinKey : pages.back().max_key + 1;
    p.max_key = i == 7 ? kMaxKey : (i + 1) * 100;
    p.pairs.push_back({p.min_key, Val("x"), i + 1});
    pages.push_back(std::move(p));
  }
  ASSERT_TRUE(tree_.RestoreLevels({{}, std::move(pages)}, 1, std::nullopt)
                  .ok());
  ASSERT_GT(tree_.level(2).page_count(), 4u);
  EXPECT_FALSE(tree_.NeedsMerge().has_value());
}

TEST_F(LsmerkleTreeTest, MergeMovesL0ToLevel1) {
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(0, {{1, "a"}, {2, "b"}})).ok());
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(1, {{1, "a2"}, {3, "c"}})).ok());
  DoMerge(0);
  EXPECT_EQ(tree_.l0_count(), 0u);
  EXPECT_EQ(tree_.level(1).page_count(), 1u);
  EXPECT_EQ(tree_.epoch(), 1u);
  ASSERT_TRUE(tree_.root_cert().has_value());

  auto r = tree_.Lookup(1);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.pair.value, Val("a2"));
  EXPECT_EQ(r.level, 1u);
  EXPECT_FALSE(tree_.Lookup(99).found);
}

TEST_F(LsmerkleTreeTest, L0ShadowsLevels) {
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(0, {{1, "old"}})).ok());
  DoMerge(0);
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(1, {{1, "new"}})).ok());
  auto r = tree_.Lookup(1);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.pair.value, Val("new"));
  EXPECT_EQ(r.level, 0u);
}

TEST_F(LsmerkleTreeTest, CascadedMergeToLevel2) {
  // Fill L0, merge to L1 repeatedly until L1 exceeds its threshold of 2
  // pages, then merge L1 into L2.
  BlockId bid = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      std::vector<std::pair<Key, std::string>> kvs;
      for (int j = 0; j < 4; ++j) {
        kvs.push_back({static_cast<Key>(round * 100 + i * 10 + j), "v"});
      }
      ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(bid++, kvs)).ok());
    }
    DoMerge(0);
  }
  // 36 distinct keys at 4 pairs/page = 9 pages in L1 > threshold 2.
  ASSERT_GT(tree_.level(1).page_count(), 2u);
  ASSERT_EQ(tree_.NeedsMerge().value(), 1u);
  DoMerge(1);
  EXPECT_EQ(tree_.level(1).page_count(), 0u);
  EXPECT_GT(tree_.level(2).page_count(), 0u);
  // All data still readable from L2.
  auto r = tree_.Lookup(212);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.level, 2u);
}

TEST_F(LsmerkleTreeTest, OverfullLevel1MergesBeforeOverfullL0) {
  // Under steady writes L0 refills past its threshold while a merge is
  // in flight; an L0-first order would never let L1 merge down.
  BlockId bid = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      std::vector<std::pair<Key, std::string>> kvs;
      for (int j = 0; j < 4; ++j) {
        kvs.push_back({static_cast<Key>(round * 100 + i * 10 + j), "v"});
      }
      ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(bid++, kvs)).ok());
    }
    DoMerge(0);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(bid++, {{900, "w"}})).ok());
  }
  ASSERT_GT(tree_.l0_count(), 2u);
  ASSERT_GT(tree_.level(1).page_count(), 2u);
  EXPECT_EQ(tree_.NeedsMerge().value(), 1u);
  DoMerge(1);
  EXPECT_EQ(tree_.NeedsMerge().value(), 0u);
}

TEST_F(LsmerkleTreeTest, InstallRejectsWrongGlobalRoot) {
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(0, {{1, "a"}})).ok());
  auto merged = *MergeIntoPages({Pair(1, "a", 0)}, {}, 4, 0);
  auto bad_cert = RootCertificate::Make(cloud_, edge_.id(), 1,
                                        Digest256::Of(Slice("bogus")), 0);
  EXPECT_TRUE(tree_.InstallMergeResult(0, 1, merged, bad_cert).IsCorruption());
}

TEST_F(LsmerkleTreeTest, InstallRejectsPastLastLevel) {
  auto cert = RootCertificate::Make(cloud_, edge_.id(), 1, Digest256(), 0);
  EXPECT_TRUE(
      tree_.InstallMergeResult(2, 0, {}, cert).IsInvalidArgument());
}

// ------------------------------------------------------- Get verification

class ReadProofTest : public LsmerkleTreeTest {
 protected:
  /// Assembles a get response the way an honest edge would.
  GetResponseBody AssembleResponse(Key key) {
    GetResponseBody resp;
    resp.key = key;
    auto r = tree_.Lookup(key);
    resp.found = r.found;
    resp.found_level = r.level;
    if (r.found) {
      resp.value = r.pair.value;
      resp.version = r.pair.version;
    }
    for (const auto& unit : tree_.l0_units()) {
      resp.l0_blocks.push_back(unit.block);
      // Tests control certification separately; default: certified.
      resp.l0_certs.push_back(BlockCertificate::Make(
          cloud_, edge_.id(), unit.block->id, unit.block->Digest(), 10));
    }
    uint32_t deepest =
        r.found ? r.level : static_cast<uint32_t>(tree_.level_count() - 1);
    if (r.found && r.level == 0) deepest = 0;
    for (uint32_t lvl = 1; lvl <= deepest; ++lvl) {
      const LevelState& level = tree_.level(lvl);
      if (level.empty()) continue;
      auto idx = level.FindPageIndex(key);
      if (!idx.ok()) continue;
      GetLevelPart part;
      part.level = lvl;
      part.page = level.SharedPage(*idx);
      part.proof = *level.ProvePage(*idx);
      resp.parts.push_back(std::move(part));
    }
    resp.level_roots = tree_.LevelRoots();
    if (tree_.root_cert().has_value()) resp.root_cert = tree_.root_cert();
    return resp;
  }

  void SeedData() {
    ASSERT_TRUE(
        tree_.ApplyBlock(MakePutBlock(0, {{10, "ten"}, {20, "twenty"}})).ok());
    ASSERT_TRUE(
        tree_.ApplyBlock(MakePutBlock(1, {{30, "thirty"}, {40, "forty"}}))
            .ok());
    DoMerge(0);  // everything now in L1
    ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(2, {{10, "TEN"}})).ok());
  }
};

TEST_F(ReadProofTest, HonestHitInL0Verifies) {
  SeedData();
  auto resp = AssembleResponse(10);
  auto v = VerifyGetResponse(keystore_, edge_.id(), 10, resp);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->found);
  EXPECT_EQ(v->value, Val("TEN"));  // L0 shadows L1's "ten"
  EXPECT_TRUE(v->phase2);
}

TEST_F(ReadProofTest, HonestHitInLevelVerifies) {
  SeedData();
  auto resp = AssembleResponse(30);
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->value, Val("thirty"));
}

TEST_F(ReadProofTest, HonestMissVerifies) {
  SeedData();
  auto resp = AssembleResponse(999);
  auto v = VerifyGetResponse(keystore_, edge_.id(), 999, resp);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_FALSE(v->found);
}

TEST_F(ReadProofTest, ResponseCodecRoundTrip) {
  SeedData();
  auto resp = AssembleResponse(30);
  Encoder enc;
  resp.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  auto back = *GetResponseBody::DecodeFrom(&dec);
  EXPECT_TRUE(dec.ExpectDone().ok());
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, back);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->value, Val("thirty"));
}

TEST_F(ReadProofTest, UncertifiedL0BlockMeansPhase1) {
  SeedData();
  auto resp = AssembleResponse(10);
  resp.l0_certs.back() = std::nullopt;  // newest block not yet certified
  auto v = VerifyGetResponse(keystore_, edge_.id(), 10, resp);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->phase2);
}

TEST_F(ReadProofTest, LyingValueDetected) {
  SeedData();
  auto resp = AssembleResponse(30);
  resp.value = Val("FORGED");
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, HidingL0VersionDetected) {
  // Edge claims the (stale) L1 value but its own L0 evidence contains the
  // newer version.
  SeedData();
  auto resp = AssembleResponse(10);
  resp.found_level = 1;
  resp.value = Val("ten");
  auto v = VerifyGetResponse(keystore_, edge_.id(), 10, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, DroppingLevelPartDetected) {
  SeedData();
  auto resp = AssembleResponse(30);
  resp.parts.clear();  // hide the L1 page that holds the value
  resp.found = false;
  resp.value.clear();
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp);
  // Level 1 is non-empty (root != 0) but no covering page was presented.
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, TamperedPageDetected) {
  SeedData();
  auto resp = AssembleResponse(30);
  for (auto& part : resp.parts) {
    // Tamper via copy-and-replace: the response shares the tree's
    // immutable pages, and a copy drops any memoized digest — exactly
    // the invalidation-safety the cache relies on.
    Page tampered = *part.page;
    for (auto& pr : tampered.pairs) {
      if (pr.key == 30) pr.value = Val("EVIL");
    }
    part.page = std::make_shared<const Page>(std::move(tampered));
  }
  resp.value = Val("EVIL");
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());  // merkle proof fails
}

TEST_F(ReadProofTest, WrongRangePageDetected) {
  // Edge presents a genuine page whose range does not cover the key (to
  // fake a miss).
  SeedData();
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(3, {{500, "x"}})).ok());
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(4, {{600, "y"}})).ok());
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(5, {{700, "z"}})).ok());
  DoMerge(0);  // L1 rebuilt; multiple pages possible
  auto resp = AssembleResponse(30);
  ASSERT_FALSE(resp.parts.empty());
  // Swap in a different page of the same level if one exists; otherwise
  // shrink the range artificially (which breaks the Merkle proof, also
  // detected).
  const LevelState& l1 = tree_.level(1);
  if (l1.page_count() > 1) {
    size_t honest = *l1.FindPageIndex(30);
    size_t other = honest == 0 ? 1 : 0;
    resp.parts[0].page = l1.SharedPage(other);
    resp.parts[0].proof = *l1.ProvePage(other);
    resp.found = false;
    resp.value.clear();
  } else {
    Page shrunk = *resp.parts[0].page;
    shrunk.max_key = 29;
    resp.parts[0].page = std::make_shared<const Page>(std::move(shrunk));
  }
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, ForgedRootCertDetected) {
  SeedData();
  auto resp = AssembleResponse(30);
  // Edge signs its own root certificate.
  resp.root_cert = RootCertificate::Make(edge_, edge_.id(), resp.root_cert->epoch,
                                         resp.root_cert->global_root, 10);
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, LevelDataWithoutRootCertRejected) {
  SeedData();
  auto resp = AssembleResponse(30);
  resp.root_cert.reset();
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, NonContiguousL0Detected) {
  SeedData();
  ASSERT_TRUE(tree_.ApplyBlock(MakePutBlock(3, {{50, "fifty"}})).ok());
  auto resp = AssembleResponse(10);
  // Drop the middle L0 block (id 2, holding key 10's newest version).
  ASSERT_EQ(resp.l0_blocks.size(), 2u);
  resp.l0_blocks.erase(resp.l0_blocks.begin());
  resp.l0_certs.erase(resp.l0_certs.begin());
  resp.found_level = 1;
  resp.value = Val("ten");
  auto v = VerifyGetResponse(keystore_, edge_.id(), 10, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, StaleSnapshotFailsFreshness) {
  SeedData();
  auto resp = AssembleResponse(30);
  GetVerifyOptions opts;
  opts.now = 100 * kSecond;
  opts.freshness_window = 10 * kSecond;  // cert.cloud_time = 1000 us: stale
  auto v = VerifyGetResponse(keystore_, edge_.id(), 30, resp, opts);
  EXPECT_TRUE(v.status().IsFailedPrecondition());

  opts.freshness_window = 200 * kSecond;  // generous window: accepted
  EXPECT_TRUE(VerifyGetResponse(keystore_, edge_.id(), 30, resp, opts).ok());
}

TEST_F(ReadProofTest, WrongKeyEchoDetected) {
  SeedData();
  auto resp = AssembleResponse(30);
  auto v = VerifyGetResponse(keystore_, edge_.id(), 31, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

TEST_F(ReadProofTest, CertForWrongEdgeDetected) {
  SeedData();
  Signer other_edge = keystore_.Register(Role::kEdge, "edge2");
  auto resp = AssembleResponse(30);
  auto v = VerifyGetResponse(keystore_, other_edge.id(), 30, resp);
  EXPECT_TRUE(v.status().IsSecurityViolation());
}

// Property sweep: across batch sizes, put N keys through blocks + merges,
// then every key's get response must verify and return the newest value.
class LsmerklePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LsmerklePropertyTest, AllKeysVerifyAfterMerges) {
  const int ops_per_block = GetParam();
  KeyStore ks;
  Signer client = ks.Register(Role::kClient, "c");
  Signer edge = ks.Register(Role::kEdge, "e");
  Signer cloud = ks.Register(Role::kCloud, "l");
  LsmConfig cfg;
  cfg.level_thresholds = {3, 2, 8};
  cfg.target_page_pairs = 8;
  LsmerkleTree tree(cfg);

  SeqNum seq = 0;
  BlockId bid = 0;
  std::map<Key, std::string> model;  // reference model
  auto do_merge = [&](size_t from) {
    std::vector<KvPair> newer;
    size_t consumed = 0;
    if (from == 0) {
      consumed = tree.l0_count();
      for (const auto& u : tree.l0_units())
        for (const auto& p : u.pairs) newer.push_back(p);
    } else {
      for (const auto& pg : tree.level(from).pages())
        for (const auto& p : pg.pairs) newer.push_back(p);
    }
    auto merged = *MergeIntoPages(std::move(newer),
                                  tree.level(from + 1).pages(),
                                  cfg.target_page_pairs, 0);
    std::vector<Digest256> roots = tree.LevelRoots();
    LevelState tmp;
    ASSERT_TRUE(tmp.SetPages(merged).ok());
    roots[from] = tmp.root();
    if (from > 0) roots[from - 1] = Digest256();
    Epoch e = tree.epoch() + 1;
    auto cert = RootCertificate::Make(cloud, edge.id(), e,
                                      ComputeGlobalRoot(e, roots), 0);
    ASSERT_TRUE(tree.InstallMergeResult(from, consumed, merged, cert).ok());
  };

  Rng rng(99);
  for (int round = 0; round < 30; ++round) {
    Block b;
    b.id = bid++;
    for (int i = 0; i < ops_per_block; ++i) {
      Key k = rng.NextBelow(40);
      std::string v = "r" + std::to_string(round) + "i" + std::to_string(i);
      b.entries.push_back(
          Entry::Make(client, seq++, EncodePutPayload(k, Slice(v))));
      model[k] = v;
    }
    ASSERT_TRUE(tree.ApplyBlock(std::move(b)).ok());
    while (auto lvl = tree.NeedsMerge()) do_merge(*lvl);
  }

  for (const auto& [k, v] : model) {
    auto r = tree.Lookup(k);
    ASSERT_TRUE(r.found) << "key " << k;
    EXPECT_EQ(r.pair.value, Val(v)) << "key " << k;
  }
  // A key never written misses.
  EXPECT_FALSE(tree.Lookup(12345).found);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, LsmerklePropertyTest,
                         ::testing::Values(1, 3, 7, 16));

}  // namespace
}  // namespace wedge
