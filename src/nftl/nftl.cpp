#include "nftl/nftl.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace swl::nftl {

using nand::PageState;

Nftl::Nftl(nand::NandChip& chip, NftlConfig config) : Nftl(chip, config, /*mount=*/false) {}

Nftl::Nftl(nand::NandChip& chip, NftlConfig config, bool mount)
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

std::unique_ptr<Nftl> Nftl::mount(nand::NandChip& chip, NftlConfig config) {
  return std::unique_ptr<Nftl>(new Nftl(chip, config, /*mount=*/true));
}

void Nftl::init_config() {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(geo.block_count > 2, "flash too small for an NFTL");
  if (config_.vba_count == 0) {
    config_.vba_count = static_cast<Vba>(
        std::min<BlockIndex>(geo.block_count * 90 / 100, geo.block_count - 2));
  }
  SWL_REQUIRE(config_.vba_count > 0, "NFTL needs at least one virtual block");
  SWL_REQUIRE(config_.vba_count + 2 <= geo.block_count,
              "NFTL needs at least two spare blocks for replacements and folds");
  SWL_REQUIRE(config_.min_free_blocks >= 2, "NFTL needs at least 2 reserve blocks");
  SWL_REQUIRE(config_.gc_trigger_fraction >= 0.0 && config_.gc_trigger_fraction < 1.0,
              "gc_trigger_fraction out of range");
  lba_count_ = config_.vba_count * geo.pages_per_block;
  vmap_.assign(config_.vba_count, VbaEntry{});
  owner_.assign(geo.block_count, kInvalidVba);
  latest_.assign(lba_count_, kInvalidPpa);
  last_write_seq_.assign(geo.block_count, 0);
  gc_trigger_ = tl::gc_trigger_level(config_.gc_trigger_fraction, config_.min_free_blocks,
                                     geo.block_count);
  fold_ops_.reserve(geo.pages_per_block);
  set_fast_paths(&Nftl::fast_write_thunk, &Nftl::fast_read_thunk);
}

void Nftl::rebuild_from_flash() {
  const auto& geo = chip().geometry();
  const PageIndex pages = geo.pages_per_block;

  // Pass 1: classify every block from its pages' spare areas. A block whose
  // readable pages disagree on VBA or role was corrupted beyond what this
  // layer can produce — that is a true invariant violation.
  struct BlockInfo {
    bool programmed = false;
    bool any_readable = false;
    Vba vba = 0;
    nand::PageRole role = nand::PageRole::data;
    std::uint64_t max_sequence = 0;
    PageIndex last_programmed = 0;
  };
  std::vector<BlockInfo> info(geo.block_count);
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    BlockInfo& bi = info[b];
    for (PageIndex p = 0; p < pages; ++p) {
      const Ppa addr{b, p};
      if (chip().page_state(addr) == PageState::free) continue;
      bi.programmed = true;
      bi.last_programmed = p;
      const nand::SpareArea& spare = chip().spare(addr);
      write_sequence_ = std::max(write_sequence_, spare.sequence);
      if (spare.lba == kInvalidLba || spare.lba >= lba_count_) {
        // Benign discard: mount-scan invalidation; the crash may already
        // have consumed the page.
        discard_status(chip().invalidate_page(addr));  // garbage (failed program)
        continue;
      }
      const Vba vba = spare.lba / pages;
      bi.max_sequence = std::max(bi.max_sequence, spare.sequence);
      last_write_seq_[b] = std::max(last_write_seq_[b], spare.sequence);
      if (!bi.any_readable) {
        bi.any_readable = true;
        bi.vba = vba;
        bi.role = spare.role;
      } else {
        SWL_ASSERT(bi.vba == vba && bi.role == spare.role,
                   "block pages disagree on VBA/role during mount");
      }
    }
  }

  // Pass 2: elect one primary and at most one replacement per VBA; stale
  // duplicates (left behind by a crash around a fold) are erased back into
  // the pool.
  std::vector<BlockIndex> to_recycle;
  std::vector<std::vector<BlockIndex>> primaries(config_.vba_count);
  std::vector<std::vector<BlockIndex>> replacements(config_.vba_count);
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    const BlockInfo& bi = info[b];
    if (chip().is_retired(b)) continue;
    if (!bi.programmed) {
      pool_.add(b, chip().erase_count(b));
      continue;
    }
    if (!bi.any_readable) {
      to_recycle.push_back(b);  // only garbage pages: reclaim
      continue;
    }
    (bi.role == nand::PageRole::replacement ? replacements : primaries)[bi.vba].push_back(b);
  }

  // The LBA offsets carried by a block's readable pages (for a replacement
  // block the page index and the offset differ, so go through the spare).
  const auto readable_offsets = [&](BlockIndex b, std::vector<bool>& out) {
    if (b == kInvalidBlock) return;
    for (PageIndex p = 0; p < pages; ++p) {
      const Ppa addr{b, p};
      if (chip().page_state(addr) != PageState::valid) continue;
      out[chip().spare(addr).lba % pages] = true;
    }
  };
  for (Vba v = 0; v < config_.vba_count; ++v) {
    // Replacement: newest by sequence wins (a fold can leave at most one
    // behind; duplicates would be pre-fold leftovers with older sequences).
    for (const BlockIndex b : replacements[v]) {
      BlockIndex& slot = vmap_[v].replacement;
      if (slot == kInvalidBlock) {
        slot = b;
      } else if (info[slot].max_sequence < info[b].max_sequence) {
        to_recycle.push_back(slot);
        slot = b;
      } else {
        to_recycle.push_back(b);
      }
    }
    // Primary: "newest wins" alone is wrong here. A crash in the middle of a
    // fold leaves a *partial* new primary whose copied pages carry the
    // highest sequences; electing it by sequence would discard the old
    // primary together with every not-yet-copied version. So a newer primary
    // only wins when it is a complete fold output: every offset readable in
    // the incumbent pair has a copy at the same page index in it. An
    // incomplete fold loses and is recycled losslessly — its pages are
    // duplicates of versions still present in the old pair.
    auto& cands = primaries[v];
    std::sort(cands.begin(), cands.end(), [&](BlockIndex a, BlockIndex b) {
      return info[a].max_sequence != info[b].max_sequence
                 ? info[a].max_sequence < info[b].max_sequence
                 : a < b;
    });
    BlockIndex winner = kInvalidBlock;
    for (const BlockIndex b : cands) {
      if (winner == kInvalidBlock) {
        winner = b;
        continue;
      }
      std::vector<bool> needed(pages, false);
      readable_offsets(winner, needed);
      readable_offsets(vmap_[v].replacement, needed);
      bool complete = true;
      for (PageIndex o = 0; o < pages && complete; ++o) {
        if (!needed[o]) continue;
        const Ppa addr{b, o};
        complete = chip().page_state(addr) == PageState::valid &&
                   chip().spare(addr).lba == static_cast<Lba>(v) * pages + o;
      }
      to_recycle.push_back(complete ? winner : b);
      if (complete) winner = b;
    }
    vmap_[v].primary = winner;
  }

  for (const BlockIndex b : to_recycle) {
    // Stale or unreadable blocks hold no current data; erase them now.
    if (chip().erase_block(b) == Status::ok) pool_.add(b, chip().erase_count(b));
  }

  // Pass 3: version election within each VBA's elected pair.
  std::vector<std::uint64_t> winning_sequence(lba_count_, 0);
  const auto elect_pages = [&](BlockIndex b) {
    if (b == kInvalidBlock) return;
    for (PageIndex p = 0; p < pages; ++p) {
      const Ppa addr{b, p};
      if (chip().page_state(addr) != PageState::valid) continue;
      const nand::SpareArea& spare = chip().spare(addr);
      keep_newest(latest_[spare.lba], winning_sequence[spare.lba], addr, spare.sequence);
    }
  };
  for (Vba v = 0; v < config_.vba_count; ++v) {
    if (vmap_[v].primary != kInvalidBlock) {
      owner_[vmap_[v].primary] = v;
      elect_pages(vmap_[v].primary);
    }
    if (vmap_[v].replacement != kInvalidBlock) {
      if (vmap_[v].primary == kInvalidBlock) {
        // Reachable without corruption: a primary whose every program failed
        // holds only unreadable garbage, so the scan recycled it above while
        // the VBA's data lives solely in the replacement. Rebuild the pair
        // with a fresh empty primary — the same shape the live layer held
        // after the failed programs (the recycled ex-primary guarantees the
        // pool is not empty here).
        SWL_ASSERT(!pool_.empty(), "no free block to re-pair an orphaned replacement");
        vmap_[v].primary = pool_.take();
      }
      owner_[vmap_[v].primary] = v;
      owner_[vmap_[v].replacement] = v;
      elect_pages(vmap_[v].replacement);
      vmap_[v].replacement_next = info[vmap_[v].replacement].last_programmed + 1;
    }
  }

  // The passes above invalidated garbage and stale versions in place;
  // resynchronize the victim index with the chip's real counts once. Only
  // owned blocks are victims, and retired blocks must never enter the index.
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    if (!chip().is_retired(b) && owner_[b] != kInvalidVba) victims_.mark_dirty(b);
  }
}

BlockIndex Nftl::allocate_block(Vba vba) {
  SWL_ASSERT(!pool_.empty(), "free-block pool exhausted");
  const BlockIndex block = pool_.take();
  SWL_ASSERT(chip().free_page_count(block) == chip().geometry().pages_per_block,
             "pooled block was not empty");
  owner_[block] = vba;
  return block;
}

void Nftl::release_block(BlockIndex block) {
  owner_[block] = kInvalidVba;
  // Either outcome leaves the block out of victim selection (erased and
  // pooled, or retired), so the victim index forgets it.
  victims_.remove(block);
  if (chip().erase_block(block) == Status::ok) {
    pool_.add(block, chip().erase_count(block));
  }
  // A worn-out, retired block is silently dropped from circulation.
}

Status Nftl::write(Lba lba, std::uint64_t payload_token) {
  return write_internal(lba, payload_token, {});
}

Status Nftl::write(Lba lba, std::uint64_t payload_token, std::span<const std::uint8_t> data) {
  SWL_REQUIRE(chip().config().store_payload_bytes,
              "byte-accurate writes need a chip with store_payload_bytes");
  SWL_REQUIRE(data.size() == chip().geometry().page_size_bytes,
              "data must be exactly one page");
  return write_internal(lba, payload_token, data);
}

Status Nftl::write_internal(Lba lba, std::uint64_t payload_token,
                            std::span<const std::uint8_t> data) {
  SWL_REQUIRE(lba < lba_count_, "LBA out of range");
  maybe_gc();
  // A write may need up to one allocation while a fold transiently needs one
  // more; refuse when the reserve is gone (device effectively full).
  if (pool_.size() < config_.min_free_blocks) return Status::out_of_space;

  const PageIndex pages = chip().geometry().pages_per_block;
  const Vba vba = lba / pages;
  const PageIndex offset = lba % pages;

  if (vmap_[vba].primary == kInvalidBlock) {
    vmap_[vba].primary = allocate_block(vba);
  }
  Ppa dst{vmap_[vba].primary, offset};
  Status st = Status::page_already_programmed;
  if (chip().page_state(dst) == PageState::free) {
    // First write of this offset since the last fold: it goes to the page
    // with the corresponding block offset in the primary block.
    st = chip().program_page(
        dst, payload_token,
        nand::SpareArea{lba, ++write_sequence_, 0, nand::PageRole::primary}, data);
    SWL_ASSERT(st == Status::ok || st == Status::program_failed,
               "free primary page was not programmable");
    victims_.mark_dirty(dst.block);  // a failed program consumes the page: counts moved either way
    if (st == Status::ok) last_write_seq_[dst.block] = write_sequence_;
  }
  if (st != Status::ok) {
    // Overwrite (or a failed primary program): append sequentially to the
    // replacement block.
    dst = append_to_replacement(vba, lba, payload_token, data);
    if (!dst.valid()) return Status::program_failed;  // media-error storm
  }
  const Ppa old = latest_[lba];
  if (old.valid()) {
    const Status inv = chip().invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale version pointed at an unprogrammed page");
    victims_.mark_dirty(old.block);
  }
  latest_[lba] = dst;
  finish_host_write();
  return Status::ok;
}

Ppa Nftl::append_to_replacement(Vba vba, Lba lba, std::uint64_t payload_token,
                                std::span<const std::uint8_t> data) {
  const PageIndex pages = chip().geometry().pages_per_block;
  // Bounded retries: each failed program consumes one replacement page, so a
  // media-error storm eventually exhausts the budget instead of spinning.
  for (PageIndex attempt = 0; attempt < 4 * pages; ++attempt) {
    if (vmap_[vba].replacement == kInvalidBlock) {
      vmap_[vba].replacement = allocate_block(vba);
      vmap_[vba].replacement_next = 0;
    } else if (vmap_[vba].replacement_next >= pages) {
      // "When a replacement block is full, valid pages in the block and its
      // associated primary block are merged into a new primary block."
      if (!fold(vba)) return kInvalidPpa;
      vmap_[vba].replacement = allocate_block(vba);
      vmap_[vba].replacement_next = 0;
    }
    const Ppa dst{vmap_[vba].replacement, vmap_[vba].replacement_next++};
    const Status st = chip().program_page(
        dst, payload_token,
        nand::SpareArea{lba, ++write_sequence_, 0, nand::PageRole::replacement}, data);
    victims_.mark_dirty(dst.block);
    if (st == Status::ok) {
      last_write_seq_[dst.block] = write_sequence_;
      return dst;
    }
    SWL_ASSERT(st == Status::program_failed, "replacement page was not programmable");
  }
  return kInvalidPpa;
}

bool Nftl::fold(Vba vba) {
  const PageIndex pages = chip().geometry().pages_per_block;
  const BlockIndex old_primary = vmap_[vba].primary;
  const BlockIndex old_replacement = vmap_[vba].replacement;
  SWL_ASSERT(old_primary != kInvalidBlock, "fold of an unmapped VBA");
  const Lba base = vba * pages;

  constexpr int kMaxAttempts = 4;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (pool_.empty()) return false;  // no destination block available
    const BlockIndex fresh = allocate_block(vba);
    // Two-phase: one copy-back batch moves every live offset to the same page
    // of `fresh`, and the op table is committed to the version index only
    // when the whole batch succeeded — a failed program abandons `fresh`
    // without ever publishing pointers into it. Fresh sequences: a crash
    // between the fold and the erase of the old pair must resolve in favor
    // of the folded copies at mount time.
    fold_ops_.clear();
    for (PageIndex offset = 0; offset < pages; ++offset) {
      const Ppa cur = latest_[base + offset];
      if (!cur.valid()) continue;
      fold_ops_.push_back({cur, Ppa{fresh, offset}, base + offset,
                           write_sequence_ + fold_ops_.size() + 1, nand::PageRole::primary});
    }
    const nand::CopyResult r = chip().copy_pages(fold_ops_);
    write_sequence_ += r.attempted;
    if (r.attempted > 0) victims_.mark_dirty(fresh);
    const std::size_t copied = r.status == Status::ok ? r.attempted : r.attempted - 1;
    count_live_copy(copied);  // real work even if this attempt is abandoned
    if (copied > 0) last_write_seq_[fresh] = fold_ops_[copied - 1].sequence;
    if (r.status != Status::ok) {
      SWL_ASSERT(r.status == Status::program_failed, "fold destination page was not programmable");
      release_block(fresh);  // erase (or retire) the abandoned block, retry
      continue;
    }
    for (const nand::CopyOp& op : fold_ops_) latest_[op.lba] = op.dst;
    vmap_[vba].primary = fresh;
    vmap_[vba].replacement = kInvalidBlock;
    vmap_[vba].replacement_next = 0;
    release_block(old_primary);
    if (old_replacement != kInvalidBlock) release_block(old_replacement);
    return true;
  }
  return false;
}

Status Nftl::read_impl(Lba lba, std::uint64_t* payload_token) {
  SWL_REQUIRE(lba < lba_count_, "LBA out of range");
  SWL_REQUIRE(payload_token != nullptr, "null output");
  const Ppa src = latest_[lba];
  if (!src.valid()) return Status::lba_not_mapped;
  // The version index only points at valid pages (check_invariants), so the
  // token read cannot fail; it ticks and counts exactly like read_page.
  const std::uint64_t token = chip().read_token(src);
  SWL_ASSERT(chip().spare(src).lba == lba, "spare-area LBA does not match the version index");
  *payload_token = token;
  finish_host_read();
  return Status::ok;
}

Status Nftl::read(Lba lba, std::uint64_t* payload_token) { return read_impl(lba, payload_token); }

Status Nftl::fast_read_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t* payload_token) {
  return static_cast<Nftl&>(base).read_impl(lba, payload_token);
}

bool Nftl::fast_write_thunk(tl::TranslationLayer& base, Lba lba, std::uint64_t payload_token) {
  Nftl& self = static_cast<Nftl&>(base);
  nand::NandChip& chip = self.chip();

  // Bail checks, all before any mutation, so the virtual slow path replays
  // the write identically after a false return.
  //   - out-of-range LBA: write_internal's SWL_REQUIRE must fire.
  //   - slow media (failure injection / power-loss hook): programs may fail
  //     or crash; only write_internal handles those.
  //   - pool below the GC trigger: maybe_gc would act. Above it the write
  //     also cannot hit out_of_space (trigger >= min_free_blocks).
  //   - unmapped primary, or primary page taken with no appendable
  //     replacement page: an allocation or a fold is needed.
  if (lba >= self.lba_count_) return false;
  if (!chip.fast_media()) return false;
  if (self.pool_.size() < self.gc_trigger_) return false;

  const PageIndex pages = chip.geometry().pages_per_block;
  const Vba vba = lba / pages;
  const PageIndex offset = lba % pages;
  const BlockIndex primary = self.vmap_[vba].primary;
  if (primary == kInvalidBlock) return false;

  Ppa dst{primary, offset};
  nand::PageRole role = nand::PageRole::primary;
  if (chip.page_state(dst) != PageState::free) {
    const BlockIndex replacement = self.vmap_[vba].replacement;
    if (replacement == kInvalidBlock || self.vmap_[vba].replacement_next >= pages) return false;
    dst = Ppa{replacement, self.vmap_[vba].replacement_next++};
    role = nand::PageRole::replacement;
  }

  // Committed: from here this mirrors write_internal exactly. On fast media
  // a program of a free page in a live (never-retired-while-mapped) block
  // cannot fail.
  const Status st = chip.program_page(
      dst, payload_token, nand::SpareArea{lba, ++self.write_sequence_, 0, role}, {});
  SWL_ASSERT(st == Status::ok, "fast-path destination page was not programmable");
  self.victims_.mark_dirty(dst.block);
  self.last_write_seq_[dst.block] = self.write_sequence_;
  const Ppa old = self.latest_[lba];
  if (old.valid()) {
    const Status inv = chip.invalidate_page(old);
    SWL_ASSERT(inv == Status::ok, "stale version pointed at an unprogrammed page");
    self.victims_.mark_dirty(old.block);
  }
  self.latest_[lba] = dst;
  self.finish_host_write();
  return true;
}

Status Nftl::read_bytes(Lba lba, std::span<std::uint8_t> out) {
  SWL_REQUIRE(lba < lba_count_, "LBA out of range");
  SWL_REQUIRE(out.size() == chip().geometry().page_size_bytes, "out must be exactly one page");
  const Ppa src = latest_[lba];
  if (!src.valid()) return Status::lba_not_mapped;
  const nand::PageReadResult r = chip().read_page(src);
  SWL_ASSERT(r.status == Status::ok, "current version unreadable");
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  std::copy(r.data.begin(), r.data.end(), out.begin());
  finish_host_read();
  return Status::ok;
}

Ppa Nftl::translate(Lba lba) const {
  SWL_REQUIRE(lba < lba_count_, "LBA out of range");
  return latest_[lba];
}

BlockIndex Nftl::primary_block(Vba vba) const {
  SWL_REQUIRE(vba < config_.vba_count, "VBA out of range");
  return vmap_[vba].primary;
}

BlockIndex Nftl::replacement_block(Vba vba) const {
  SWL_REQUIRE(vba < config_.vba_count, "VBA out of range");
  return vmap_[vba].replacement;
}

void Nftl::maybe_gc() {
  while (pool_.size() < gc_trigger_) {
    if (!gc_once()) break;
  }
}

bool Nftl::gc_once() {
  // A fold can fail under injected media errors; try a few victims before
  // reporting that nothing could be reclaimed.
  for (int tries = 0; tries < 4; ++tries) {
    if (pool_.empty()) return false;  // a fold needs a destination block
    if (gc_select_and_fold()) return true;
  }
  return false;
}

bool Nftl::gc_select_and_fold() {
  // A block is foldable iff it has an owner: pooled blocks never have one
  // (check_invariants asserts it) and neither do retired blocks (ownership
  // is cleared before every erase, including the one that retires).
  const auto owned = [this](BlockIndex b) { return owner_[b] != kInvalidVba; };
  BlockIndex victim = kInvalidBlock;
  if (config_.victim_policy == tl::VictimPolicy::cost_benefit_age) {
    victim = victims_.best_cost_benefit(chip(), owned, [this](BlockIndex b) {
      return static_cast<double>(write_sequence_ - last_write_seq_[b]);
    });
  } else {
    // Greedy cost/benefit selection, with the most-invalid fallback when no
    // block scores positive.
    victim = victims_.first_positive(chip(), owned);
    if (victim == kInvalidBlock) victim = victims_.most_invalid(chip(), owned);
  }
  return victim != kInvalidBlock && fold(owner_[victim]);
}

void Nftl::do_collect_blocks(BlockIndex first, BlockIndex count) {
  const auto& geo = chip().geometry();
  SWL_REQUIRE(first < geo.block_count && count > 0 && first + count <= geo.block_count,
              "block set out of range");
  // A fold can erase two blocks of this set at once; remember the erase
  // counts we started from so such blocks are not pointlessly erased again.
  std::vector<std::uint32_t> before(count);
  for (BlockIndex i = 0; i < count; ++i) before[i] = chip().erase_count(first + i);

  for (BlockIndex b = first; b < first + count; ++b) {
    if (chip().is_retired(b)) continue;
    if (chip().erase_count(b) > before[b - first]) continue;  // already recycled above
    if (pool_.contains(b)) {
      // A free block simply gets its erase (and thereby its BET flag).
      pool_.remove(b);
      if (chip().erase_block(b) == Status::ok) pool_.add(b, chip().erase_count(b));
      continue;
    }
    if (owner_[b] == kInvalidVba) continue;  // dropped block (should be retired)
    if (pool_.empty()) continue;             // no destination for a fold
    // Benign discard: a failed fold under media errors is skipped — the
    // leveling pass retries the block set in a later interval.
    if (!fold(owner_[b])) continue;
  }
}

void Nftl::check_invariants() const {
  const auto& geo = chip().geometry();
  const PageIndex pages = geo.pages_per_block;

  std::uint64_t versioned = 0;
  for (Lba lba = 0; lba < lba_count_; ++lba) {
    const Ppa p = latest_[lba];
    if (!p.valid()) continue;
    ++versioned;
    SWL_ASSERT(chip().page_state(p) == PageState::valid, "version index points at non-valid page");
    SWL_ASSERT(chip().spare(p).lba == lba, "version index and spare area disagree");
    const Vba vba = lba / pages;
    SWL_ASSERT(p.block == vmap_[vba].primary || p.block == vmap_[vba].replacement,
               "version lives outside its VBA's blocks");
  }

  std::uint64_t valid_pages = 0;
  for (BlockIndex b = 0; b < geo.block_count; ++b) {
    valid_pages += chip().valid_page_count(b);
    if (pool_.contains(b)) {
      SWL_ASSERT(owner_[b] == kInvalidVba, "pooled block has an owner");
      SWL_ASSERT(chip().free_page_count(b) == pages, "pooled block not empty");
    }
  }
  SWL_ASSERT(versioned == valid_pages, "version count != valid page count");

  for (Vba v = 0; v < config_.vba_count; ++v) {
    if (vmap_[v].primary != kInvalidBlock) {
      SWL_ASSERT(owner_[vmap_[v].primary] == v, "primary ownership mismatch");
    }
    if (vmap_[v].replacement != kInvalidBlock) {
      SWL_ASSERT(owner_[vmap_[v].replacement] == v, "replacement ownership mismatch");
      SWL_ASSERT(vmap_[v].primary != kInvalidBlock, "replacement without a primary");
      SWL_ASSERT(chip().free_page_count(vmap_[v].replacement) == pages - vmap_[v].replacement_next,
                 "replacement write pointer out of sync");
    }
  }
}

}  // namespace swl::nftl
