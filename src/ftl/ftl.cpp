#include "ftl/ftl.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace swl::ftl {

using nand::PageState;

Ftl::Ftl(nand::NandChip& chip, FtlConfig config) : Ftl(chip, config, /*mount=*/false) {}

Ftl::Ftl(nand::NandChip& chip, FtlConfig config, bool mount)
    : tl::TranslationLayer(chip),
      config_(config),
      pool_(chip.geometry().block_count, config.alloc_policy),
      victims_(chip.geometry().block_count, chip.geometry().pages_per_block,
               config.gc_cost_weight, config.reference_victim_scan) {
  init_config();
  if (mount) {
    rebuild_from_flash();
    return;
  }
  for (BlockIndex b = 0; b < chip.geometry().block_count; ++b) {
    pool_.add(b, chip.erase_count(b));
  }
}

std::unique_ptr<Ftl> Ftl::mount(nand::NandChip& chip, FtlConfig config) {
  return std::unique_ptr<Ftl>(new Ftl(chip, config, /*mount=*/true));
}

void Ftl::init_config() {
  const auto& geo = chip().geometry();
  // Keep at least two blocks of over-provisioning (three with hot/cold
  // separation): every write frontier plus one GC destination must always be
  // allocatable even when every exported LBA holds valid data.
  const std::uint64_t reserve_pages =
      (config_.hot_cold_separation ? 3ULL : 2ULL) * geo.pages_per_block;
  SWL_REQUIRE(geo.page_count() > reserve_pages, "flash too small for an FTL");
  if (config_.lba_count == 0) {
    config_.lba_count = static_cast<Lba>(
        std::min(geo.page_count() * 98 / 100, geo.page_count() - reserve_pages));
  }
  SWL_REQUIRE(config_.lba_count + reserve_pages <= geo.page_count(),
              "FTL needs at least two blocks of over-provisioning (three with "
              "hot/cold separation)");
  if (config_.hot_cold_separation) hot_id_.emplace(config_.hotness);
  SWL_REQUIRE(config_.min_free_blocks >= 2, "FTL needs at least 2 reserve blocks");
  SWL_REQUIRE(geo.block_count > config_.min_free_blocks, "flash too small for the reserve");
  SWL_REQUIRE(config_.gc_trigger_fraction >= 0.0 && config_.gc_trigger_fraction < 1.0,
              "gc_trigger_fraction out of range");
  map_.assign(config_.lba_count, kInvalidPpa);
  last_write_seq_.assign(geo.block_count, 0);
  gc_trigger_ = tl::gc_trigger_level(config_.gc_trigger_fraction, config_.min_free_blocks,
                                     geo.block_count);
  set_fast_paths(&Ftl::fast_write_thunk, &Ftl::fast_read_thunk);
}

void Ftl::rebuild_from_flash() {
  const auto& geo = chip().geometry();
  // Pass 1: the newest version of every LBA wins; everything else (stale
  // versions, garbage pages that fail ECC) is invalidated.
  std::vector<std::uint64_t> winning_sequence(config_.lba_count, 0);
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
      const Ppa addr{b, p};
      if (chip().page_state(addr) != PageState::valid) continue;
      const nand::SpareArea& spare = chip().spare(addr);
      write_sequence_ = std::max(write_sequence_, spare.sequence);
      last_write_seq_[b] = std::max(last_write_seq_[b], spare.sequence);
      if (spare.lba == kInvalidLba || spare.lba >= config_.lba_count) {
        // Benign discard: mount-scan invalidation of a page a crash may
        // already have consumed — page_not_programmed just means the work
        // is already done.
        discard_status(chip().invalidate_page(addr));  // unreadable / out of range
        continue;
      }
      keep_newest(map_[spare.lba], winning_sequence[spare.lba], addr, spare.sequence);
    }
  }
  // Pass 2: rebuild the pool from fully erased blocks and re-adopt the
  // partially written blocks with the largest free tails as frontiers.
  tl::FrontierCandidates partial;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (chip().is_retired(b)) continue;
    if (chip().free_page_count(b) == geo.pages_per_block) {
      pool_.add(b, chip().erase_count(b));
    } else {
      partial.offer(chip(), b);
    }
  }
  partial.adopt(geo.pages_per_block,
                {&host_, &gc_, config_.hot_cold_separation ? &hot_ : nullptr});
  // The passes above invalidated stale pages in place; synchronize the
  // victim index with the chip's real counts once. Retired blocks never
  // enter the index.
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (!chip().is_retired(b)) victims_.mark_dirty(b);
  }
}

Status Ftl::write(Lba lba, std::uint64_t payload_token) {
  return write_internal(lba, payload_token, {});
}

Status Ftl::write(Lba lba, std::uint64_t payload_token, std::span<const std::uint8_t> data) {
  SWL_REQUIRE(chip().config().store_payload_bytes,
              "byte-accurate writes need a chip with store_payload_bytes");
  SWL_REQUIRE(data.size() == chip().geometry().page_size_bytes,
              "data must be exactly one page");
  return write_internal(lba, payload_token, data);
}

Status Ftl::write_internal(Lba lba, std::uint64_t payload_token,
                           std::span<const std::uint8_t> data) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  maybe_gc();
  // With hot/cold separation, hot-classified writes get their own frontier
  // so blocks tend to hold data of one lifetime class.
  bool hot = false;
  if (hot_id_.has_value()) {
    hot_id_->record_write(lba);
    hot = hot_id_->is_hot(lba);
  }
  // A host write may only open a new frontier block when at least one other
  // free block remains: the last free block is reserved for garbage
  // collection, which would otherwise have no destination for live copies
  // and wedge the device.
  const Ppa dst = (hot ? hot_ : host_).program_next(pool_, chip(), /*keep_free=*/1, [&](Ppa to) {
    const Status st =
        chip().program_page(to, payload_token, nand::SpareArea{lba, ++write_sequence_, 0}, data);
    victims_.mark_dirty(to.block);  // a failed program consumes the page: counts moved either way
    return st;
  });
  if (!dst.valid()) return Status::out_of_space;
  last_write_seq_[dst.block] = write_sequence_;
  const Ppa old = map_[lba];
  if (old.valid()) {
    const Status inv = chip().invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale mapping pointed at an unprogrammed page");
    victims_.mark_dirty(old.block);
  }
  map_[lba] = dst;
  finish_host_write();
  return Status::ok;
}

Status Ftl::read_impl(Lba lba, std::uint64_t* payload_token) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  SWL_REQUIRE(payload_token != nullptr, "null output");
  const Ppa src = map_[lba];
  if (!src.valid()) return Status::lba_not_mapped;
  const std::uint64_t token = chip().read_token(src);
  SWL_ASSERT(chip().spare(src).lba == lba, "spare-area LBA does not match the mapping");
  *payload_token = token;
  finish_host_read();
  return Status::ok;
}

Status Ftl::read(Lba lba, std::uint64_t* payload_token) { return read_impl(lba, payload_token); }

Status Ftl::fast_read_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t* payload_token) {
  return static_cast<Ftl&>(base).read_impl(lba, payload_token);
}

bool Ftl::fast_write_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t payload_token) {
  Ftl& self = static_cast<Ftl&>(base);
  nand::NandChip& chip = self.chip();
  // Bail-out checks first — nothing below them may mutate state, so a bail
  // replays the record through write_internal from scratch.
  if (lba >= self.config_.lba_count || !chip.fast_media()) return false;
  // Pool at or above the GC trigger: write_internal's maybe_gc() would not
  // collect anything. Its frontier *sealing* is also safely deferred: a full
  // frontier behaves exactly like a sealed one everywhere outside gc_once()
  // (program_next opens a new block either way, clean_block counts no free
  // pages in it and closes it when collected), and gc_once() only runs from
  // maybe_gc(), which always seals first.
  if (self.pool_.size() < self.gc_trigger_) return false;
  const PageIndex pages = chip.geometry().pages_per_block;
  if (self.host_.full(pages)) return false;
  const bool classify = self.hot_id_.has_value();
  if (classify && self.hot_.full(pages)) {
    return false;  // the write might classify hot; both frontiers must be open
  }
  // Committed: this mirrors write_internal statement for statement.
  bool hot = false;
  if (classify) {
    self.hot_id_->record_write(lba);
    hot = self.hot_id_->is_hot(lba);
  }
  tl::Frontier& frontier = hot ? self.hot_ : self.host_;
  const Ppa dst{frontier.block, frontier.next++};
  const Status st =
      chip.program_page(dst, payload_token, nand::SpareArea{lba, ++self.write_sequence_, 0});
  SWL_ASSERT(st == Status::ok, "fast-path frontier page was not programmable");
  self.victims_.mark_dirty(dst.block);
  self.last_write_seq_[dst.block] = self.write_sequence_;
  const Ppa old = self.map_[lba];
  if (old.valid()) {
    const Status inv = chip.invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale mapping pointed at an unprogrammed page");
    self.victims_.mark_dirty(old.block);
  }
  self.map_[lba] = dst;
  self.finish_host_write();
  return true;
}

Status Ftl::read_bytes(Lba lba, std::span<std::uint8_t> out) {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  SWL_REQUIRE(out.size() == chip().geometry().page_size_bytes, "out must be exactly one page");
  const Ppa src = map_[lba];
  if (!src.valid()) return Status::lba_not_mapped;
  const nand::PageReadResult r = chip().read_page(src);
  SWL_ASSERT(r.status == Status::ok, "mapping pointed at an unreadable page");
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  std::copy(r.data.begin(), r.data.end(), out.begin());
  finish_host_read();
  return Status::ok;
}

Ppa Ftl::translate(Lba lba) const {
  SWL_REQUIRE(lba < config_.lba_count, "LBA out of range");
  return map_[lba];
}

void Ftl::maybe_gc() {
  const PageIndex pages = chip().geometry().pages_per_block;
  host_.seal_if_full(pages);
  gc_.seal_if_full(pages);
  hot_.seal_if_full(pages);
  while (pool_.size() < gc_trigger_) {
    if (!gc_once()) break;
  }
}

bool Ftl::gc_once() {
  const auto not_frontier = [this](BlockIndex b) {
    return b != host_.block && b != gc_.block && b != hot_.block;
  };
  BlockIndex victim = kInvalidBlock;
  if (config_.victim_policy == tl::VictimPolicy::cost_benefit_age) {
    // LFS-style: maximize age * (1-u) / 2u over blocks with anything to
    // reclaim.
    victim = victims_.best_cost_benefit(chip(), not_frontier, [this](BlockIndex b) {
      return static_cast<double>(write_sequence_ - last_write_seq_[b]);
    });
  } else {
    // Greedy cost/benefit selection via cyclic scan (Section 5.1). When no
    // block clears the greedy bar, fall back to the most-invalid block (ties
    // to the least-worn — dynamic wear leveling) so space can still be
    // reclaimed under pressure. The fallback may also collect a partially
    // filled frontier: superseded copies can pile up there, and excluding it
    // would wedge the device (clean_block closes the frontier first).
    victim = victims_.first_positive(chip(), not_frontier);
    if (victim == kInvalidBlock) {
      victim = victims_.most_invalid(chip(), [](BlockIndex) { return true; });
    }
  }
  return victim != kInvalidBlock && clean_block(victim);
}

bool Ftl::clean_block(BlockIndex victim) {
  const auto& geo = chip().geometry();
  // Capacity guard: make sure every live page of the victim has a
  // destination before touching anything. Regular GC victims always fit (an
  // invalid page implies valid < pages_per_block and the reserved GC block
  // provides pages_per_block destinations); this protects SWL-requested
  // collections under extreme space pressure.
  const std::uint64_t destinations =
      gc_.room(geo.pages_per_block, victim) +
      pool_.size() * static_cast<std::uint64_t>(geo.pages_per_block);
  if (chip().valid_page_count(victim) > destinations) return false;
  // Close frontiers that are being collected (SWL may select them).
  host_.close_if(victim);
  gc_.close_if(victim);
  hot_.close_if(victim);
  for (PageIndex p = 0; p < geo.pages_per_block; ++p) {
    const Ppa src{victim, p};
    if (chip().page_state(src) != PageState::valid) continue;
    const nand::SpareArea& spare = chip().spare(src);
    const Lba lba = spare.lba;
    SWL_ASSERT(lba < config_.lba_count && map_[lba] == src,
               "valid page not referenced by the translation table");
    // A fresh sequence number per attempt: if power is lost between this
    // copy and the victim's erase, the mount scan must prefer the copy.
    const Ppa dst = gc_.copy_next(
        pool_, chip(), /*keep_free=*/0, src, lba, spare.role,
        [this] { return ++write_sequence_; },
        [this](Ppa to) { victims_.mark_dirty(to.block); });
    if (!dst.valid()) {
      // Out of destinations (possible only under media-error storms or SWL
      // collections at extreme pressure): stop here. Pages already relocated
      // were invalidated at their source, so the partially cleaned victim
      // stays fully consistent — it just is not erased.
      return false;
    }
    map_[lba] = dst;
    last_write_seq_[dst.block] = write_sequence_;
    const Status inv = chip().invalidate_page(src);
    SWL_ASSERT(inv == Status::ok, "relocated source page was not invalidatable");
    victims_.mark_dirty(victim);
    count_live_copy();
  }
  const Status st = chip().erase_block(victim);
  if (st == Status::ok) {
    pool_.add(victim, chip().erase_count(victim));
  }
  // Erased (score 0, no invalid pages) or retired: either way the block
  // leaves the index until it is programmed again.
  victims_.remove(victim);
  // A worn-out, retired block is silently dropped from circulation.
  return true;
}

void Ftl::do_collect_blocks(BlockIndex first, BlockIndex count) {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(first < geo.block_count && count > 0 && first + count <= geo.block_count,
              "block set out of range");
  for (BlockIndex b = first; b < first + count; ++b) {
    if (chip().is_retired(b)) continue;
    if (pool_.empty() && !pool_.contains(b)) continue;  // no destination for copies
    if (pool_.contains(b)) {
      // A free block simply gets its erase (and thereby its BET flag).
      pool_.remove(b);
      if (chip().erase_block(b) == Status::ok) pool_.add(b, chip().erase_count(b));
      continue;
    }
    clean_block(b);
  }
}

void Ftl::check_invariants() const {
  const auto& geo = chip().geometry();
  std::uint64_t mapped = 0;
  for (Lba lba = 0; lba < config_.lba_count; ++lba) {
    const Ppa p = map_[lba];
    if (!p.valid()) continue;
    ++mapped;
    SWL_ASSERT(chip().page_state(p) == PageState::valid, "map points at a non-valid page");
    SWL_ASSERT(chip().spare(p).lba == lba, "map and spare area disagree");
  }
  std::uint64_t valid_pages = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    valid_pages += chip().valid_page_count(b);
    if (pool_.contains(b)) {
      SWL_ASSERT(chip().free_page_count(b) == geo.pages_per_block, "pooled block not empty");
    }
  }
  SWL_ASSERT(mapped == valid_pages, "mapped LBA count != valid page count");
}

}  // namespace swl::ftl
