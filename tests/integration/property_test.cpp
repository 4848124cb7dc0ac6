// Parameterized property suite: for every (layer, k, T, selection policy)
// combination, a randomized workload must preserve data integrity and every
// structural invariant of the stack.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "core/rng.hpp"
#include "ftl/ftl.hpp"
#include "nftl/nftl.hpp"
#include "swl/leveler.hpp"
#include "tl/translation_layer.hpp"

namespace swl {
namespace {

enum class Layer { ftl, nftl };

struct Stack {
  std::unique_ptr<nand::NandChip> chip;
  std::unique_ptr<tl::TranslationLayer> layer;
  const wear::SwLeveler* swl = nullptr;

  void check_invariants() const {
    if (auto* f = dynamic_cast<ftl::Ftl*>(layer.get())) f->check_invariants();
    if (auto* n = dynamic_cast<nftl::Nftl*>(layer.get())) n->check_invariants();
  }
};

Stack make_stack(Layer kind, std::uint32_t k, double threshold,
                 wear::LevelerConfig::Selection selection) {
  Stack s;
  nand::NandConfig nc;
  nc.geometry = FlashGeometry{.block_count = 24, .pages_per_block = 8, .page_size_bytes = 2048};
  nc.timing = default_timing(CellType::mlc_x2);
  s.chip = std::make_unique<nand::NandChip>(nc);
  if (kind == Layer::ftl) {
    s.layer = std::make_unique<ftl::Ftl>(*s.chip, ftl::FtlConfig{});
  } else {
    s.layer = std::make_unique<nftl::Nftl>(*s.chip, nftl::NftlConfig{});
  }
  wear::LevelerConfig lc;
  lc.k = k;
  lc.threshold = threshold;
  lc.selection = selection;
  auto leveler = std::make_unique<wear::SwLeveler>(24, lc);
  s.swl = leveler.get();
  s.layer->attach_leveler(std::move(leveler));
  return s;
}

using Param = std::tuple<Layer, std::uint32_t, double, wear::LevelerConfig::Selection>;

class SwlPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(SwlPropertyTest, RandomWorkloadPreservesDataAndInvariants) {
  const auto [kind, k, threshold, selection] = GetParam();
  Stack s = make_stack(kind, k, threshold, selection);
  const Lba lbas = s.layer->lba_count();
  Rng rng(0xF00D ^ (k * 31) ^ static_cast<std::uint64_t>(threshold));
  std::map<Lba, std::uint64_t> shadow;
  std::uint64_t token = 1;

  for (int i = 0; i < 8'000; ++i) {
    // Skewed workload: half the writes hit 4 hot LBAs.
    const Lba lba = rng.chance(0.5) ? static_cast<Lba>(rng.below(4))
                                    : static_cast<Lba>(rng.below(lbas));
    ASSERT_EQ(s.layer->write(lba, token), Status::ok);
    shadow[lba] = token++;
    if (i % 1000 == 0) s.check_invariants();
  }
  for (const auto& [lba, want] : shadow) {
    std::uint64_t got = 0;
    ASSERT_EQ(s.layer->read(lba, &got), Status::ok);
    ASSERT_EQ(got, want);
  }
  s.check_invariants();

  // After every host write the layer runs SWL when needed, so at quiescence
  // the unevenness level is below T (unless the last run could not make
  // progress, which the stall counter records).
  const auto* lev = s.layer->leveler();
  EXPECT_TRUE(!lev->needs_leveling() || lev->stats().stalls > 0);
}

TEST_P(SwlPropertyTest, SequentialOverwritePassPreservesData) {
  const auto [kind, k, threshold, selection] = GetParam();
  Stack s = make_stack(kind, k, threshold, selection);
  const Lba lbas = s.layer->lba_count();
  // Three full sequential passes (like re-writing a large file).
  for (int pass = 0; pass < 3; ++pass) {
    for (Lba lba = 0; lba < lbas; ++lba) {
      ASSERT_EQ(s.layer->write(lba, static_cast<std::uint64_t>(pass) * lbas + lba), Status::ok);
    }
  }
  for (Lba lba = 0; lba < lbas; ++lba) {
    std::uint64_t got = 0;
    ASSERT_EQ(s.layer->read(lba, &got), Status::ok);
    ASSERT_EQ(got, 2ULL * lbas + lba);
  }
  s.check_invariants();
}

TEST_P(SwlPropertyTest, EveryBlockSetEventuallyParticipates) {
  const auto [kind, k, threshold, selection] = GetParam();
  Stack s = make_stack(kind, k, threshold, selection);
  // Static wear leveling's promise, per mapping mode: in one-to-one mode
  // (k = 0) no *block* stays unerased forever under a workload with immobile
  // cold data. In one-to-many mode only the weaker per-*set* property holds:
  // a cold block sharing its set with frequently-erased blocks can be
  // overlooked — exactly the k trade-off Section 3.2 of the paper describes.
  const Lba lbas = s.layer->lba_count();
  for (Lba lba = 0; lba < lbas / 2; ++lba) {
    ASSERT_EQ(s.layer->write(lba, lba), Status::ok);  // cold data
  }
  Rng rng(77);
  for (int i = 0; i < 30'000; ++i) {
    const Lba hot = lbas - 1 - static_cast<Lba>(rng.below(2));
    ASSERT_EQ(s.layer->write(hot, static_cast<std::uint64_t>(i)), Status::ok);
  }
  const auto& bet = s.swl->bet();
  if (k == 0) {
    for (BlockIndex b = 0; b < s.chip->geometry().block_count; ++b) {
      EXPECT_GT(s.chip->erase_count(b), 0u) << "block " << b << " never erased";
    }
  } else {
    for (std::size_t flag = 0; flag < bet.flag_count(); ++flag) {
      const BlockIndex first = bet.first_block_of(flag);
      std::uint64_t set_erases = 0;
      for (BlockIndex b = first; b < first + bet.set_size_of(flag); ++b) {
        set_erases += s.chip->erase_count(b);
      }
      EXPECT_GT(set_erases, 0u) << "block set " << flag << " never erased";
    }
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const Layer kind = std::get<0>(info.param);
  const std::uint32_t k = std::get<1>(info.param);
  const double threshold = std::get<2>(info.param);
  const auto selection = std::get<3>(info.param);
  std::string name = kind == Layer::ftl ? "Ftl" : "Nftl";
  name.append("K").append(std::to_string(k));
  name.append("T").append(std::to_string(static_cast<int>(threshold)));
  name += selection == wear::LevelerConfig::Selection::cyclic_scan ? "Cyclic" : "Random";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SwlPropertyTest,
    ::testing::Combine(::testing::Values(Layer::ftl, Layer::nftl),
                       ::testing::Values(0u, 1u, 3u),
                       ::testing::Values(10.0, 100.0),
                       ::testing::Values(wear::LevelerConfig::Selection::cyclic_scan,
                                         wear::LevelerConfig::Selection::random)),
    param_name);

}  // namespace
}  // namespace swl
