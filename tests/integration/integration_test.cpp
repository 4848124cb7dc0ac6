// Cross-module integration tests: full stack (trace -> layer -> chip ->
// leveler -> persistence) scenarios that mirror how a firmware build would
// deploy the SW Leveler.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "nftl/nftl.hpp"
#include "sim/experiments.hpp"
#include "swl/snapshot.hpp"
#include "trace/segment_replay.hpp"
#include "trace/synthetic.hpp"

namespace swl {
namespace {

nand::NandConfig chip_config(BlockIndex blocks, PageIndex pages = 8) {
  nand::NandConfig c;
  c.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = pages,
                             .page_size_bytes = 2048};
  c.timing = default_timing(CellType::mlc_x2);
  return c;
}

// Replays a synthetic trace against a layer while mirroring every write in a
// shadow map, then verifies the device returns exactly the shadow contents.
void replay_and_verify(tl::TranslationLayer& layer, std::uint64_t seed, int op_count) {
  trace::SyntheticConfig tc;
  tc.lba_count = layer.lba_count();
  tc.duration_s = 30 * 24 * 3600;
  tc.seed = seed;
  trace::SyntheticTraceSource source(tc);
  std::map<Lba, std::uint64_t> shadow;
  std::uint64_t token = 1;
  for (int i = 0; i < op_count; ++i) {
    const auto rec = source.next();
    ASSERT_TRUE(rec.has_value());
    if (rec->op == trace::Op::write) {
      ASSERT_EQ(layer.write(rec->lba, token), Status::ok);
      shadow[rec->lba] = token++;
    } else {
      std::uint64_t got = 0;
      const Status st = layer.read(rec->lba, &got);
      if (shadow.contains(rec->lba)) {
        ASSERT_EQ(st, Status::ok);
        ASSERT_EQ(got, shadow[rec->lba]);
      } else {
        ASSERT_EQ(st, Status::lba_not_mapped);
      }
    }
  }
  for (const auto& [lba, want] : shadow) {
    std::uint64_t got = 0;
    ASSERT_EQ(layer.read(lba, &got), Status::ok);
    ASSERT_EQ(got, want) << "lba " << lba;
  }
}

TEST(Integration, FtlSurvivesSyntheticWorkloadWithSwl) {
  nand::NandChip chip(chip_config(32));
  ftl::Ftl layer(chip, ftl::FtlConfig{});
  wear::LevelerConfig lc;
  lc.threshold = 4;  // aggressive, so 20k ops are enough to exercise SWL
  layer.attach_leveler(std::make_unique<wear::SwLeveler>(32, lc));
  replay_and_verify(layer, 101, 20'000);
  layer.check_invariants();
  EXPECT_GT(layer.counters().swl_erases, 0u);  // SWL actually ran
}

TEST(Integration, NftlSurvivesSyntheticWorkloadWithSwl) {
  nand::NandChip chip(chip_config(32));
  nftl::Nftl layer(chip, nftl::NftlConfig{});
  wear::LevelerConfig lc;
  lc.threshold = 4;
  layer.attach_leveler(std::make_unique<wear::SwLeveler>(32, lc));
  replay_and_verify(layer, 202, 20'000);
  layer.check_invariants();
  EXPECT_GT(layer.counters().swl_erases, 0u);
}

TEST(Integration, FullReattachRestoresMappingAndBet) {
  // The complete shutdown + reboot story: the BET snapshot is saved (Section
  // 3.2's "save the BET ... when the system shuts down"), the chip keeps its
  // contents, and on reattach the FTL mounts from spare areas while the
  // leveler reloads its interval state and continues where it left off.
  nand::NandChip chip(chip_config(32));
  wear::MemorySnapshotStore store;
  std::uint64_t ecnt_before = 0;
  std::size_t findex_before = 0;
  std::map<Lba, std::uint64_t> shadow;
  {
    ftl::Ftl layer(chip, ftl::FtlConfig{});
    wear::LevelerConfig lc;
    lc.threshold = 25;
    auto leveler = std::make_unique<wear::SwLeveler>(32, lc);
    const auto* swl = leveler.get();
    layer.attach_leveler(std::move(leveler));
    Rng rng(303);
    for (int i = 0; i < 5'000; ++i) {
      const Lba lba = rng.chance(0.5) ? static_cast<Lba>(rng.below(4))
                                      : static_cast<Lba>(rng.below(layer.lba_count()));
      ASSERT_EQ(layer.write(lba, static_cast<std::uint64_t>(i + 1)), Status::ok);
      shadow[lba] = static_cast<std::uint64_t>(i + 1);
    }
    wear::LevelerPersistence persistence(store);
    ASSERT_EQ(persistence.save(*swl), Status::ok);
    ecnt_before = swl->ecnt();
    findex_before = swl->findex();
  }
  chip.forget_logical_state();  // power-off
  {
    auto layer = ftl::Ftl::mount(chip, ftl::FtlConfig{});
    auto leveler = std::make_unique<wear::SwLeveler>(32, wear::LevelerConfig{.threshold = 25});
    wear::LevelerPersistence persistence(store);
    ASSERT_EQ(persistence.load(*leveler), Status::ok);
    EXPECT_EQ(leveler->ecnt(), ecnt_before);
    EXPECT_EQ(leveler->findex(), findex_before);
    const auto* swl = leveler.get();
    layer->attach_leveler(std::move(leveler));
    for (const auto& [lba, want] : shadow) {
      std::uint64_t got = 0;
      ASSERT_EQ(layer->read(lba, &got), Status::ok);
      ASSERT_EQ(got, want);
    }
    // Leveling continues from the restored interval.
    Rng rng(404);
    for (int i = 0; i < 5'000; ++i) {
      const Lba lba = rng.chance(0.5) ? static_cast<Lba>(rng.below(4))
                                      : static_cast<Lba>(rng.below(layer->lba_count()));
      ASSERT_EQ(layer->write(lba, static_cast<std::uint64_t>(90'000 + i)), Status::ok);
      shadow[lba] = static_cast<std::uint64_t>(90'000 + i);
    }
    for (const auto& [lba, want] : shadow) {
      std::uint64_t got = 0;
      ASSERT_EQ(layer->read(lba, &got), Status::ok);
      ASSERT_EQ(got, want);
    }
    EXPECT_GT(swl->ecnt() + swl->stats().bet_resets, 0u);
    layer->check_invariants();
  }
}

TEST(Integration, SwlReducesEraseDeviationOnBothLayers) {
  // The Table 4 shape at miniature scale: stddev of erase counts collapses
  // under SWL for both layers.
  using sim::ExperimentScale;
  using sim::LayerKind;
  ExperimentScale scale;
  scale.block_count = 32;
  scale.endurance = 1'000'000;  // don't wear out; we only compare deviations
  scale.base_trace_days = 0.25;
  scale.seed = 9;
  for (const LayerKind kind : {LayerKind::ftl, LayerKind::nftl}) {
    const trace::Trace trace = sim::make_base_trace(scale, kind);
    const auto base = sim::run_infinite_on(scale, kind, std::nullopt, trace, 0.1,
                                           /*stop_on_failure=*/false);
    wear::LevelerConfig lc;
    lc.threshold = 4;  // aggressive leveling so 0.1 years show a clear effect
    const auto with = sim::run_infinite_on(scale, kind, lc, trace, 0.1, /*stop_on_failure=*/false);
    EXPECT_LT(with.erase_summary.stddev, base.erase_summary.stddev)
        << sim::to_string(kind);
  }
}

TEST(Integration, EraseAccountingIsConsistent) {
  // Chip-level erase counters must equal the layer's attribution split.
  nand::NandChip chip(chip_config(32));
  ftl::Ftl layer(chip, ftl::FtlConfig{});
  wear::LevelerConfig lc;
  lc.threshold = 20;
  layer.attach_leveler(std::make_unique<wear::SwLeveler>(32, lc));
  replay_and_verify(layer, 404, 15'000);
  const auto& c = layer.counters();
  EXPECT_EQ(c.gc_erases + c.swl_erases, chip.counters().erases);
  std::uint64_t sum = 0;
  for (BlockIndex b = 0; b < 32; ++b) sum += chip.erase_count(b);
  EXPECT_EQ(sum, chip.counters().erases);
}

TEST(Integration, LevelerEcntMatchesErasesSinceReset) {
  nand::NandChip chip(chip_config(32));
  ftl::Ftl layer(chip, ftl::FtlConfig{});
  wear::LevelerConfig lc;
  lc.threshold = 1e18;  // never reset, never run
  auto leveler = std::make_unique<wear::SwLeveler>(32, lc);
  const auto* swl = leveler.get();
  layer.attach_leveler(std::move(leveler));
  replay_and_verify(layer, 505, 15'000);
  EXPECT_EQ(swl->ecnt(), chip.counters().erases);
  EXPECT_EQ(swl->stats().bet_resets, 0u);
}

}  // namespace
}  // namespace swl
