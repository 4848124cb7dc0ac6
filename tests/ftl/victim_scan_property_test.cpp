// Randomized cross-check of the FTL victim-selection fast path.
//
// The production greedy policy selects victims through tl::VictimIndex —
// cached scores flushed from a dirty mask at GC time — while
// FtlConfig::reference_victim_scan falls back to the plain scans that probe
// the chip's live counts for every candidate (the cyclic positive-score scan
// plus the most-invalid fallback loop). The two must pick the same victims
// in the same order — this test drives identical random workloads through
// both configurations and asserts the entire externally visible state
// (mapping, wear, counters) stays bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "swl/leveler.hpp"

namespace swl::ftl {
namespace {

struct Stack {
  Stack(BlockIndex blocks, PageIndex pages, Lba lbas, double weight, tl::VictimPolicy policy,
        bool hot_cold, bool reference_scan, bool with_leveler) {
    nand::NandConfig cc;
    cc.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = pages,
                                .page_size_bytes = 512};
    cc.timing = default_timing(CellType::slc_large_block);
    chip = std::make_unique<nand::NandChip>(cc);
    FtlConfig cfg;
    cfg.lba_count = lbas;
    cfg.gc_cost_weight = weight;
    cfg.victim_policy = policy;
    cfg.hot_cold_separation = hot_cold;
    cfg.reference_victim_scan = reference_scan;
    ftl = std::make_unique<Ftl>(*chip, cfg);
    if (with_leveler) {
      wear::LevelerConfig lc;
      lc.k = 2;
      lc.threshold = 4;
      ftl->attach_leveler(std::make_unique<wear::SwLeveler>(blocks, lc));
    }
  }
  std::unique_ptr<nand::NandChip> chip;
  std::unique_ptr<Ftl> ftl;
};

/// Asserts every piece of externally visible state matches between the
/// victim-index production stack and the reference-scan stack.
void expect_identical(Stack& fast, Stack& ref) {
  ASSERT_EQ(fast.ftl->lba_count(), ref.ftl->lba_count());
  EXPECT_EQ(fast.chip->counters().programs, ref.chip->counters().programs);
  EXPECT_EQ(fast.chip->counters().erases, ref.chip->counters().erases);
  EXPECT_EQ(fast.chip->erase_counts(), ref.chip->erase_counts());
  EXPECT_EQ(fast.ftl->counters().gc_erases, ref.ftl->counters().gc_erases);
  EXPECT_EQ(fast.ftl->counters().gc_live_copies, ref.ftl->counters().gc_live_copies);
  EXPECT_EQ(fast.ftl->counters().swl_erases, ref.ftl->counters().swl_erases);
  EXPECT_EQ(fast.ftl->counters().swl_live_copies, ref.ftl->counters().swl_live_copies);
  for (Lba lba = 0; lba < fast.ftl->lba_count(); ++lba) {
    const Ppa pf = fast.ftl->translate(lba);
    const Ppa pr = ref.ftl->translate(lba);
    EXPECT_EQ(pf.block, pr.block) << "lba " << lba;
    EXPECT_EQ(pf.page, pr.page) << "lba " << lba;
    std::uint64_t tf = 0;
    std::uint64_t tr = 0;
    const Status sf = fast.ftl->read(lba, &tf);
    const Status sr = ref.ftl->read(lba, &tr);
    EXPECT_EQ(sf, sr) << "lba " << lba;
    EXPECT_EQ(tf, tr) << "lba " << lba;
  }
  EXPECT_NO_THROW(fast.ftl->check_invariants());
  EXPECT_NO_THROW(ref.ftl->check_invariants());
}

struct Workload {
  BlockIndex blocks;
  PageIndex pages;
  Lba lbas;
  double weight;
  tl::VictimPolicy policy = tl::VictimPolicy::greedy_cyclic;
  bool hot_cold = false;
  bool with_leveler = false;
  std::uint64_t seed = 0;
  std::uint64_t writes = 0;
};

void run_workload(const Workload& w) {
  Stack fast(w.blocks, w.pages, w.lbas, w.weight, w.policy, w.hot_cold,
             /*reference_scan=*/false, w.with_leveler);
  Stack ref(w.blocks, w.pages, w.lbas, w.weight, w.policy, w.hot_cold,
            /*reference_scan=*/true, w.with_leveler);
  Rng rng(w.seed);
  std::uint64_t token = 1;
  for (std::uint64_t i = 0; i < w.writes; ++i) {
    // Skew toward a hot prefix so GC storms (and hot/cold separation, when
    // on) actually trigger.
    const Lba span = rng.chance(0.5) ? std::max<Lba>(1, fast.ftl->lba_count() / 4)
                                     : fast.ftl->lba_count();
    const Lba lba = static_cast<Lba>(rng.below(span));
    const std::uint64_t t = token++;
    const Status sf = fast.ftl->write(lba, t);
    const Status sr = ref.ftl->write(lba, t);
    ASSERT_EQ(sf, sr) << "write " << i << " lba " << lba;
  }
  expect_identical(fast, ref);
}

TEST(FtlVictimScanProperty, GreedyCyclicMatchesReferenceScan) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_workload({.blocks = 16, .pages = 8, .lbas = 96, .weight = 1.0,
                  .seed = seed, .writes = 800});
  }
}

TEST(FtlVictimScanProperty, HeavyCostWeightMatchesReferenceScan) {
  // A large cost weight drives the cyclic positive-score scan to fail often,
  // exercising the most-invalid fallback (the index's candidate-mask probe
  // against the reference's full-table loop, including erase-count and
  // lowest-index tie-breaks).
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    run_workload({.blocks = 16, .pages = 8, .lbas = 96, .weight = 4.0,
                  .seed = seed, .writes = 800});
  }
}

TEST(FtlVictimScanProperty, TinyPoolStormWithLevelerMatches) {
  // lbas just under the physical capacity leaves the minimum legal
  // over-provisioning, maximizing GC pressure and fallback scans; the
  // aggressive leveler adds SWL erases into the same scan state.
  for (std::uint64_t seed = 30; seed <= 33; ++seed) {
    run_workload({.blocks = 12, .pages = 8, .lbas = 72, .weight = 0.5,
                  .with_leveler = true, .seed = seed, .writes = 900});
  }
}

TEST(FtlVictimScanProperty, CostBenefitAgePolicyMatches) {
  // The cost-benefit-age pick walks the index's candidate mask (blocks with
  // an invalid page) instead of every block; a tight pool keeps it busy and
  // the leveler's collections add SWL erases to the same state.
  for (std::uint64_t seed = 50; seed <= 53; ++seed) {
    run_workload({.blocks = 12, .pages = 8, .lbas = 72, .weight = 1.0,
                  .policy = tl::VictimPolicy::cost_benefit_age, .with_leveler = true,
                  .seed = seed, .writes = 900});
  }
}

TEST(FtlVictimScanProperty, HotColdSeparationMatches) {
  // Hot/cold separation adds a third frontier the victim query must skip;
  // the index filters frontiers at selection time, the reference scan
  // inside its predicate.
  for (std::uint64_t seed = 40; seed <= 43; ++seed) {
    run_workload({.blocks = 20, .pages = 8, .lbas = 120, .weight = 1.0,
                  .hot_cold = true, .with_leveler = true, .seed = seed, .writes = 900});
  }
}

}  // namespace
}  // namespace swl::ftl
