// Randomized cross-check of the NFTL victim-scan fast path.
//
// The production greedy policy selects victims through tl::VictimIndex —
// cached scores flushed from a dirty mask at GC time — and the
// cost-benefit-age policy walks only the index's candidate mask;
// NftlConfig::reference_victim_scan disables both short-cuts and probes the
// chip for every candidate in the plain two-pass scan. The configurations
// must pick the same victims in the same order — this test drives identical
// random workloads through both and asserts the entire externally visible
// state (mapping, wear, counters) stays bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "nftl/nftl.hpp"
#include "swl/leveler.hpp"

namespace swl::nftl {
namespace {

struct Stack {
  Stack(BlockIndex blocks, PageIndex pages, Vba vbas, double weight, tl::VictimPolicy policy,
        bool reference_scan, bool with_leveler) {
    nand::NandConfig cc;
    cc.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = pages,
                                .page_size_bytes = 512};
    cc.timing = default_timing(CellType::slc_large_block);
    chip = std::make_unique<nand::NandChip>(cc);
    NftlConfig cfg;
    cfg.vba_count = vbas;
    cfg.gc_cost_weight = weight;
    cfg.victim_policy = policy;
    cfg.reference_victim_scan = reference_scan;
    nftl = std::make_unique<Nftl>(*chip, cfg);
    if (with_leveler) {
      wear::LevelerConfig lc;
      lc.k = 2;
      lc.threshold = 4;
      nftl->attach_leveler(std::make_unique<wear::SwLeveler>(blocks, lc));
    }
  }
  std::unique_ptr<nand::NandChip> chip;
  std::unique_ptr<Nftl> nftl;
};

/// Asserts every piece of externally visible state matches between the
/// single-pass production stack and the two-pass reference stack.
void expect_identical(Stack& fast, Stack& ref) {
  ASSERT_EQ(fast.nftl->lba_count(), ref.nftl->lba_count());
  EXPECT_EQ(fast.chip->counters().programs, ref.chip->counters().programs);
  EXPECT_EQ(fast.chip->counters().erases, ref.chip->counters().erases);
  EXPECT_EQ(fast.chip->erase_counts(), ref.chip->erase_counts());
  EXPECT_EQ(fast.nftl->counters().gc_erases, ref.nftl->counters().gc_erases);
  EXPECT_EQ(fast.nftl->counters().gc_live_copies, ref.nftl->counters().gc_live_copies);
  EXPECT_EQ(fast.nftl->counters().swl_erases, ref.nftl->counters().swl_erases);
  EXPECT_EQ(fast.nftl->counters().swl_live_copies, ref.nftl->counters().swl_live_copies);
  for (Lba lba = 0; lba < fast.nftl->lba_count(); ++lba) {
    const Ppa pf = fast.nftl->translate(lba);
    const Ppa pr = ref.nftl->translate(lba);
    EXPECT_EQ(pf.block, pr.block) << "lba " << lba;
    EXPECT_EQ(pf.page, pr.page) << "lba " << lba;
    std::uint64_t tf = 0;
    std::uint64_t tr = 0;
    const Status sf = fast.nftl->read(lba, &tf);
    const Status sr = ref.nftl->read(lba, &tr);
    EXPECT_EQ(sf, sr) << "lba " << lba;
    EXPECT_EQ(tf, tr) << "lba " << lba;
  }
  EXPECT_NO_THROW(fast.nftl->check_invariants());
  EXPECT_NO_THROW(ref.nftl->check_invariants());
}

struct Workload {
  BlockIndex blocks;
  PageIndex pages;
  Vba vbas;
  double weight;
  tl::VictimPolicy policy = tl::VictimPolicy::greedy_cyclic;
  bool with_leveler = false;
  std::uint64_t seed = 0;
  std::uint64_t writes = 0;
};

void run_workload(const Workload& w) {
  Stack fast(w.blocks, w.pages, w.vbas, w.weight, w.policy, /*reference_scan=*/false,
             w.with_leveler);
  Stack ref(w.blocks, w.pages, w.vbas, w.weight, w.policy, /*reference_scan=*/true,
            w.with_leveler);
  Rng rng(w.seed);
  std::uint64_t token = 1;
  for (std::uint64_t i = 0; i < w.writes; ++i) {
    // Skew toward a hot prefix so folds and GC storms actually trigger.
    const Lba span = rng.chance(0.5) ? std::max<Lba>(1, fast.nftl->lba_count() / 4)
                                     : fast.nftl->lba_count();
    const Lba lba = static_cast<Lba>(rng.below(span));
    const std::uint64_t t = token++;
    const Status sf = fast.nftl->write(lba, t);
    const Status sr = ref.nftl->write(lba, t);
    ASSERT_EQ(sf, sr) << "write " << i << " lba " << lba;
  }
  expect_identical(fast, ref);
}

TEST(NftlVictimScanProperty, GreedyCyclicMatchesReferenceScan) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_workload({.blocks = 16, .pages = 8, .vbas = 10, .weight = 1.0,
                  .seed = seed, .writes = 600});
  }
}

TEST(NftlVictimScanProperty, HeavyCostWeightMatchesReferenceScan) {
  // A large cost weight drives the cyclic scan to fail often, exercising the
  // most-invalid fallback that the single-pass scan accumulates inline.
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    run_workload({.blocks = 16, .pages = 8, .vbas = 10, .weight = 4.0,
                  .seed = seed, .writes = 600});
  }
}

TEST(NftlVictimScanProperty, CostBenefitAgePolicyMatches) {
  for (std::uint64_t seed = 20; seed <= 23; ++seed) {
    run_workload({.blocks = 24, .pages = 4, .vbas = 17, .weight = 1.0,
                  .policy = tl::VictimPolicy::cost_benefit_age, .with_leveler = true,
                  .seed = seed, .writes = 900});
  }
}

TEST(NftlVictimScanProperty, TinyPoolStormWithLevelerMatches) {
  // vbas == blocks - 3 leaves the minimum legal spare pool, maximizing GC
  // pressure and fallback-victim scans; the aggressive leveler adds SWL
  // erases into the same scan state.
  for (std::uint64_t seed = 30; seed <= 33; ++seed) {
    run_workload({.blocks = 12, .pages = 8, .vbas = 9, .weight = 0.5,
                  .with_leveler = true, .seed = seed, .writes = 800});
  }
}

}  // namespace
}  // namespace swl::nftl
