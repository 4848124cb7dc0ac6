// DFTL unit battery: CMT eviction edge cases the differential fuzzer only
// hits probabilistically are pinned here deterministically —
//   - a capacity-1 CMT (every miss is an eviction, the LRU list is one node);
//   - an all-dirty eviction storm exercising write-back batching exactly;
//   - re-referencing a page the batch just flushed (resident-clean hit, then
//     re-dirtying without a fetch);
//   - mount-after-dirty-CMT (acknowledged writes survive a discarded cache),
//     with padded and full-page translation pages;
//   - the on-flash translation-page format, byte for byte, through every
//     program path (mount recovery, CMT write-back, translation-block GC);
//   - the FTL-equivalence canary: with an effectively infinite CMT the DFTL
//     must read back bit-identically to the in-RAM FTL on the same trace,
//     pinned by a serial content fingerprint constant.
#include "dftl/dftl.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/contracts.hpp"
#include "core/rng.hpp"
#include "ftl/ftl.hpp"

namespace swl::dftl {
namespace {

std::unique_ptr<nand::NandChip> make_chip(BlockIndex blocks = 16, PageIndex pages = 8,
                                          std::uint32_t page_size_bytes = 512) {
  nand::NandConfig cc;
  cc.geometry = FlashGeometry{.block_count = blocks, .pages_per_block = pages,
                              .page_size_bytes = page_size_bytes};
  cc.timing = default_timing(CellType::slc_small_block);
  cc.store_payload_bytes = true;  // translation pages are byte payloads
  return std::make_unique<nand::NandChip>(cc);
}

DftlConfig small_config() {
  DftlConfig cfg;
  cfg.lba_count = 64;
  cfg.lbas_per_tpage = 8;  // 8 translation pages
  cfg.cmt_capacity = 2;
  cfg.writeback_batch = 2;
  return cfg;
}

TEST(Dftl, CapacityOneCmtServesTheWholeMap) {
  auto chip = make_chip();
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 1;
  cfg.writeback_batch = 1;
  Dftl dftl(*chip, cfg);
  ASSERT_EQ(dftl.cmt_capacity(), 1u);

  // Two full passes: the second overwrites everything through repeated
  // single-slot eviction of a dirty victim.
  std::uint64_t token = 1;
  for (int pass = 0; pass < 2; ++pass) {
    for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
      ASSERT_EQ(dftl.write(lba, token), Status::ok) << "pass " << pass << " lba " << lba;
      ++token;
    }
  }
  EXPECT_LE(dftl.resident_count(), 1u);
  for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
    std::uint64_t t = 0;
    ASSERT_EQ(dftl.read(lba, &t), Status::ok) << "lba " << lba;
    EXPECT_EQ(t, dftl.lba_count() + lba + 1) << "lba " << lba;
  }
  const DftlStats& s = dftl.stats();
  EXPECT_GT(s.cmt_misses, 0u);
  EXPECT_GT(s.fetches, 0u);
  EXPECT_GT(s.cmt_evictions, 0u);
  EXPECT_GT(s.writebacks, 0u);
  EXPECT_EQ(s.batched_writebacks, 0u);  // batch=1: plain DFTL, no batching
  EXPECT_GT(dftl.counters().map_reads, 0u);
  EXPECT_GT(dftl.counters().map_writes, 0u);
  EXPECT_GT(dftl.counters().map_write_amplification(), 0.0);
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, AllDirtyEvictionStormFlushesTheBatchFromTheColdEnd) {
  auto chip = make_chip();
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 4;
  cfg.writeback_batch = 4;
  Dftl dftl(*chip, cfg);

  // Dirty all four slots: one write into each of tvpn 0..3.
  for (Lba tvpn = 0; tvpn < 4; ++tvpn) {
    ASSERT_EQ(dftl.write(tvpn * 8, 100 + tvpn), Status::ok);
    ASSERT_TRUE(dftl.is_resident(tvpn));
    ASSERT_TRUE(dftl.is_dirty(tvpn));
  }
  ASSERT_EQ(dftl.resident_count(), 4u);
  ASSERT_EQ(dftl.stats().writebacks, 0u);

  // A fifth translation page forces eviction of the LRU tail (tvpn 0, dirty)
  // and the batch flushes the other three from the cold end — they stay
  // resident, now clean.
  ASSERT_EQ(dftl.write(4 * 8, 200), Status::ok);
  EXPECT_FALSE(dftl.is_resident(0));
  for (Lba tvpn = 1; tvpn < 4; ++tvpn) {
    ASSERT_TRUE(dftl.is_resident(tvpn)) << "tvpn " << tvpn;
    EXPECT_FALSE(dftl.is_dirty(tvpn)) << "tvpn " << tvpn;
    EXPECT_TRUE(dftl.tpage_location(tvpn).valid()) << "tvpn " << tvpn;
  }
  ASSERT_TRUE(dftl.is_resident(4));
  EXPECT_TRUE(dftl.is_dirty(4));
  const DftlStats& s = dftl.stats();
  EXPECT_EQ(s.cmt_evictions, 1u);
  EXPECT_EQ(s.writebacks, 1u);
  EXPECT_EQ(s.batched_writebacks, 3u);
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, ReReferenceAfterBatchFlushHitsWithoutAFetch) {
  auto chip = make_chip();
  DftlConfig cfg = small_config();
  cfg.cmt_capacity = 4;
  cfg.writeback_batch = 4;
  Dftl dftl(*chip, cfg);

  for (Lba tvpn = 0; tvpn < 4; ++tvpn) {
    ASSERT_EQ(dftl.write(tvpn * 8, 100 + tvpn), Status::ok);
  }
  ASSERT_EQ(dftl.write(4 * 8, 200), Status::ok);  // the storm of the test above
  ASSERT_TRUE(dftl.is_resident(1));
  ASSERT_FALSE(dftl.is_dirty(1));

  // Re-reference the just-flushed tvpn 1: a CMT hit (no fetch, no map read),
  // still clean after the read.
  const std::uint64_t fetches_before = dftl.stats().fetches;
  const std::uint64_t hits_before = dftl.stats().cmt_hits;
  std::uint64_t t = 0;
  ASSERT_EQ(dftl.read(1 * 8, &t), Status::ok);
  EXPECT_EQ(t, 101u);
  EXPECT_EQ(dftl.stats().fetches, fetches_before);
  EXPECT_GT(dftl.stats().cmt_hits, hits_before);
  EXPECT_FALSE(dftl.is_dirty(1));

  // Overwriting through the flushed page re-dirties it in place — again no
  // fetch, no write-back yet.
  const std::uint64_t writebacks_before = dftl.stats().writebacks;
  ASSERT_EQ(dftl.write(1 * 8 + 1, 300), Status::ok);
  EXPECT_TRUE(dftl.is_resident(1));
  EXPECT_TRUE(dftl.is_dirty(1));
  EXPECT_EQ(dftl.stats().fetches, fetches_before);
  EXPECT_EQ(dftl.stats().writebacks, writebacks_before);

  // Everything written so far still reads back.
  for (Lba tvpn = 0; tvpn < 5; ++tvpn) {
    std::uint64_t got = 0;
    ASSERT_EQ(dftl.read(tvpn * 8, &got), Status::ok) << "tvpn " << tvpn;
    EXPECT_EQ(got, tvpn == 4 ? 200u : 100 + tvpn) << "tvpn " << tvpn;
  }
  std::uint64_t got = 0;
  ASSERT_EQ(dftl.read(1 * 8 + 1, &got), Status::ok);
  EXPECT_EQ(got, 300u);
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, TranslateAgreesWithCmtAndFlash) {
  auto chip = make_chip();
  Dftl dftl(*chip, small_config());
  Rng rng(7);
  std::vector<std::uint64_t> shadow(dftl.lba_count(), 0);
  std::uint64_t token = 1;
  for (int i = 0; i < 300; ++i) {
    const Lba lba = static_cast<Lba>(rng.below(dftl.lba_count()));
    ASSERT_EQ(dftl.write(lba, token), Status::ok);
    shadow[lba] = token++;
  }
  for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
    const Ppa p = dftl.translate(lba);
    if (shadow[lba] == 0) {
      EXPECT_FALSE(p.valid()) << "lba " << lba;
      continue;
    }
    ASSERT_TRUE(p.valid()) << "lba " << lba;
    if (dftl.is_resident(dftl.tvpn_of(lba))) {
      EXPECT_EQ(dftl.cmt_entry(lba), p) << "lba " << lba;
    }
    std::uint64_t t = 0;
    ASSERT_EQ(dftl.read(lba, &t), Status::ok) << "lba " << lba;
    EXPECT_EQ(t, shadow[lba]) << "lba " << lba;
  }
  EXPECT_NO_THROW(dftl.check_invariants());
}

TEST(Dftl, TranslateTpageAgreesWithTranslate) {
  auto chip = make_chip();
  Dftl dftl(*chip, small_config());
  Rng rng(9);
  for (std::uint64_t token = 1; token <= 200; ++token) {
    ASSERT_EQ(dftl.write(static_cast<Lba>(rng.below(dftl.lba_count())), token), Status::ok);
  }
  // Resident and flash-only pages decode alike.
  std::vector<Ppa> out(dftl.lbas_per_tpage());
  for (Lba tvpn = 0; tvpn < dftl.tpage_count(); ++tvpn) {
    dftl.translate_tpage(tvpn, out);
    for (std::uint32_t k = 0; k < dftl.lbas_per_tpage(); ++k) {
      EXPECT_EQ(out[k], dftl.translate(tvpn * dftl.lbas_per_tpage() + k))
          << "tvpn " << tvpn << " entry " << k;
    }
  }
  std::vector<Ppa> too_short(dftl.lbas_per_tpage() - 1);
  EXPECT_THROW(dftl.translate_tpage(0, too_short), PreconditionError);
}

// Writes a random workload, drops the layer with dirty CMT pages (no
// shutdown flush), mounts the image and checks every acknowledged write.
void expect_mount_keeps_acknowledged_writes(nand::NandChip& chip, const DftlConfig& cfg,
                                            int writes) {
  std::vector<std::uint64_t> shadow;
  {
    Dftl dftl(chip, cfg);
    shadow.assign(dftl.lba_count(), 0);
    Rng rng(11);
    std::uint64_t token = 1;
    for (int i = 0; i < writes; ++i) {
      const Lba lba = static_cast<Lba>(rng.below(dftl.lba_count()));
      ASSERT_EQ(dftl.write(lba, token), Status::ok);
      shadow[lba] = token++;
    }
    // At least one translation page must be dirty in the CMT right now, or
    // the mount below would not prove anything about discarded dirty state.
    bool any_dirty = false;
    for (Lba tvpn = 0; tvpn < dftl.tpage_count(); ++tvpn) {
      any_dirty = any_dirty || (dftl.is_resident(tvpn) && dftl.is_dirty(tvpn));
    }
    ASSERT_TRUE(any_dirty) << "workload left the CMT fully clean; test is vacuous";
  }  // layer destroyed without any shutdown flush — the dirty CMT is lost

  chip.forget_logical_state();
  auto mounted = Dftl::mount(chip, cfg);
  ASSERT_NE(mounted, nullptr);
  EXPECT_EQ(mounted->resident_count(), 0u);  // the CMT starts empty
  EXPECT_GT(mounted->stats().recovery_writes, 0u);
  EXPECT_NO_THROW(mounted->check_invariants());
  for (Lba lba = 0; lba < mounted->lba_count(); ++lba) {
    std::uint64_t t = 0;
    const Status s = mounted->read(lba, &t);
    if (shadow[lba] == 0) {
      EXPECT_EQ(s, Status::lba_not_mapped) << "lba " << lba;
    } else {
      ASSERT_EQ(s, Status::ok) << "lba " << lba;
      EXPECT_EQ(t, shadow[lba]) << "lba " << lba;
    }
  }
  EXPECT_NO_THROW(mounted->check_invariants());
}

TEST(Dftl, MountAfterDirtyCmtKeepsEveryAcknowledgedWrite) {
  auto chip = make_chip();
  expect_mount_keeps_acknowledged_writes(*chip, small_config(), 250);
}

TEST(Dftl, MountWithFullPageTranslationPagesKeepsEveryAcknowledgedWrite) {
  // Default lbas_per_tpage: the entries fill the whole page, so every
  // translation page is programmed straight from a CMT slot or the mount's
  // expected page with no padding at all.
  auto chip = make_chip(64, 16, 512);
  DftlConfig cfg;
  cfg.lba_count = 512;
  cfg.cmt_capacity = 2;
  {
    const Dftl probe(*chip, cfg);
    ASSERT_EQ(probe.lbas_per_tpage(), 128u);
    ASSERT_EQ(probe.tpage_count(), 4u);
  }
  expect_mount_keeps_acknowledged_writes(*chip, cfg, 2000);
}

// Little-endian u32 image of `entries`, zero-padded to a page.
std::vector<std::uint8_t> tpage_image_of(const std::vector<std::uint32_t>& entries,
                                         std::uint32_t page_size_bytes) {
  std::vector<std::uint8_t> image(page_size_bytes, 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      image[4 * i + b] = static_cast<std::uint8_t>(entries[i] >> (8 * b));
    }
  }
  return image;
}

std::vector<std::uint8_t> raw_tpage(const Dftl& dftl, Lba tvpn) {
  const nand::PageReadResult r = dftl.chip().read_page(dftl.tpage_location(tvpn));
  EXPECT_EQ(r.status, Status::ok);
  return {r.data.begin(), r.data.end()};
}

void expect_on_flash_format(std::uint32_t lbas_per_tpage) {
  // 1040 blocks x 64 pages: packed entry block * 64 + page reaches 0x010203
  // (bytes 03 02 01 00 on flash) and the max PPA 0x0103FF. A byte-order
  // probe with four distinct non-zero bytes would need a 17 M-page chip.
  constexpr PageIndex kPages = 64;
  constexpr BlockIndex kBlocks = 1040;
  constexpr std::uint32_t kPageSize = 512;
  auto chip = make_chip(kBlocks, kPages, kPageSize);
  // Craft the data pages of LBAs 0..3 at chosen addresses; mount writes the
  // translation page that maps them (a recovery program).
  const Ppa at[] = {{0, 0}, {0, 1}, {0x010203 / kPages, 0x010203 % kPages},
                    {kBlocks - 1, kPages - 1}};
  for (Lba lba = 0; lba < 4; ++lba) {
    ASSERT_EQ(chip->program_page(at[lba], 1000 + lba, nand::SpareArea{lba, lba + 1, 0}),
              Status::ok);
  }
  DftlConfig cfg;
  cfg.lba_count = 256;
  cfg.lbas_per_tpage = lbas_per_tpage;
  cfg.cmt_capacity = 1;
  auto dftl = Dftl::mount(*chip, cfg);
  const std::uint32_t n = dftl->lbas_per_tpage();
  std::vector<std::uint32_t> entries(n, Dftl::kUnmappedEntry);
  entries[0] = 0;
  entries[1] = 1;
  entries[2] = 0x010203;
  entries[3] = kBlocks * kPages - 1;  // the max PPA
  const std::vector<std::uint8_t> recovered = raw_tpage(*dftl, 0);
  EXPECT_EQ(recovered, tpage_image_of(entries, kPageSize)) << "mount recovery";
  // The same bytes spelled out: entries 2, 3 and 4 at offsets 8..19.
  const std::vector<std::uint8_t> spelled = {0x03, 0x02, 0x01, 0x00, 0xFF, 0x03,
                                             0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_EQ(std::vector<std::uint8_t>(recovered.begin() + 8, recovered.begin() + 20), spelled);

  // CMT write-back: fetch tvpn 0, map LBA 4, then evict it from the
  // one-slot CMT by touching tvpn 1.
  std::uint64_t t = 0;
  ASSERT_EQ(dftl->read(2, &t), Status::ok);
  EXPECT_EQ(t, 1002u);
  ASSERT_EQ(dftl->write(4, 2000), Status::ok);
  ASSERT_EQ(dftl->write(n, 2001), Status::ok);
  ASSERT_FALSE(dftl->is_resident(0));
  const Ppa p4 = dftl->translate(4);
  entries[4] = p4.block * kPages + p4.page;
  const std::vector<std::uint8_t> image = tpage_image_of(entries, kPageSize);
  EXPECT_EQ(raw_tpage(*dftl, 0), image) << "CMT write-back";

  // Translation-block GC relocates the non-resident page from scratch.
  const Ppa before = dftl->tpage_location(0);
  dftl->collect_blocks(before.block, 1);
  ASSERT_NE(dftl->tpage_location(0), before);
  EXPECT_EQ(raw_tpage(*dftl, 0), image) << "translation-block GC";
  EXPECT_NO_THROW(dftl->check_invariants());
}

TEST(Dftl, OnFlashTranslationPageFormatIsLittleEndianWithZeroPadding) {
  expect_on_flash_format(8);  // padded: 8 entries, 480 zero bytes
}

TEST(Dftl, OnFlashTranslationPageFormatFillsTheFullPage) {
  expect_on_flash_format(0);  // default: 128 entries fill the 512-byte page
}

TEST(Dftl, InfeasibleConfigIsRejected) {
  auto chip = make_chip(8, 4);  // 32 physical pages
  DftlConfig cfg;
  cfg.lba_count = 64;  // cannot fit: data + translation pages + reserve > 32
  cfg.lbas_per_tpage = 8;
  EXPECT_THROW(Dftl(*chip, cfg), PreconditionError);
}

// FNV-1a over the full logical content (lba, token) stream.
std::uint64_t content_fingerprint(tl::TranslationLayer& layer) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (Lba lba = 0; lba < layer.lba_count(); ++lba) {
    std::uint64_t t = 0;
    const Status s = layer.read(lba, &t);
    mix(lba);
    mix(s == Status::ok ? t : 0);
  }
  return h;
}

TEST(Dftl, InfiniteCmtIsBitIdenticalToInRamFtl) {
  // The canary of DESIGN §10: with cmt_capacity >= tpage_count the CMT never
  // evicts, so the DFTL's logical behavior must be indistinguishable from
  // the in-RAM FTL on any trace — same per-write statuses, same content.
  auto dchip = make_chip();
  DftlConfig dcfg = small_config();
  dcfg.cmt_capacity = 64;  // >= tpage_count: effectively infinite
  Dftl dftl(*dchip, dcfg);
  ASSERT_GE(dftl.cmt_capacity(), dftl.tpage_count());

  auto fchip = make_chip();
  ftl::FtlConfig fcfg;
  fcfg.lba_count = dcfg.lba_count;
  ftl::Ftl ftl(*fchip, fcfg);

  Rng rng(0xD3F7);
  std::uint64_t token = 1;
  for (int i = 0; i < 3000; ++i) {
    const Lba span = rng.chance(0.5) ? 8 : dftl.lba_count();
    const Lba lba = static_cast<Lba>(rng.below(span));
    const std::uint64_t t = token++;
    const Status sd = dftl.write(lba, t);
    const Status sf = ftl.write(lba, t);
    ASSERT_EQ(sd, sf) << "write " << i << " lba " << lba;
  }
  EXPECT_EQ(dftl.stats().cmt_evictions, 0u);
  EXPECT_EQ(dftl.stats().writebacks, 0u);  // nothing ever leaves the cache

  for (Lba lba = 0; lba < dftl.lba_count(); ++lba) {
    std::uint64_t td = 0;
    std::uint64_t tf = 0;
    const Status sd = dftl.read(lba, &td);
    const Status sf = ftl.read(lba, &tf);
    ASSERT_EQ(sd, sf) << "lba " << lba;
    if (sd == Status::ok) {
      EXPECT_EQ(td, tf) << "lba " << lba;
    }
  }
  EXPECT_NO_THROW(dftl.check_invariants());
  EXPECT_NO_THROW(ftl.check_invariants());

  const std::uint64_t fp_dftl = content_fingerprint(dftl);
  const std::uint64_t fp_ftl = content_fingerprint(ftl);
  EXPECT_EQ(fp_dftl, fp_ftl);
  // Pinned serial fingerprint: any change to the DFTL write path, the RNG or
  // the trace shape shows up here. Recompute deliberately, never casually.
  EXPECT_EQ(fp_dftl, 0x7e35be950f6d778eull);
}

}  // namespace
}  // namespace swl::dftl
