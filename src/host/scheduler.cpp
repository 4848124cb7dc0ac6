#include "host/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "core/contracts.hpp"

namespace swl::host {

namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// QueuePair
// ---------------------------------------------------------------------------

QueuePair::QueuePair(HostScheduler& sched, unsigned index, unsigned shards,
                     std::size_t queue_depth)
    : sched_(sched), index_(index), slots_(queue_depth) {
  free_slots_.reserve(queue_depth);
  for (std::size_t s = queue_depth; s > 0; --s) {
    free_slots_.push_back(static_cast<std::uint32_t>(s - 1));
  }
  completion_rings_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    // Sized to the queue depth: at most queue_depth requests are in flight
    // per stream, so a completion push can never find the ring full.
    completion_rings_.push_back(std::make_unique<SpscRing<std::uint32_t>>(queue_depth));
  }
}

Status QueuePair::submit(OpKind op, SectorIndex first, std::uint64_t value,
                         std::span<const std::uint64_t> run_values, SubmitMode mode,
                         RequestId* id) {
  checker_.check("QueuePair::submit");
  SWL_REQUIRE(sched_.running(), "scheduler not running");
  const std::uint64_t count = op == OpKind::write_run ? run_values.size() : 1;
  SWL_REQUIRE(count > 0, "empty request");
  SWL_REQUIRE(first + count <= sched_.sector_count(), "sector out of range");
  if (op == OpKind::write_run) {
    SWL_REQUIRE(first % sched_.sectors_per_page_ + count <= sched_.sectors_per_page_,
                "write run must stay within one logical page");
  }
  if (free_slots_.empty()) {
    // Queue depth exhausted: only reaping completions can free a slot, so
    // blocking here would deadlock the very thread that must reap.
    ++counters_.would_blocks;
    return Status::busy;
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();

  Request& r = slots_[slot];
  r.owner = this;
  r.id = next_id_;
  r.op = op;
  r.run_count = static_cast<std::uint8_t>(count);
  r.shard = static_cast<std::uint16_t>(sched_.shard_of(first));
  r.slot = slot;
  r.local_first = sched_.local_sector(first);
  r.value = value;
  if (op == OpKind::write_run) {
    std::copy(run_values.begin(), run_values.end(), r.run_values.begin());
  }
  r.status = Status::ok;
  r.submit_ns = now_ns();

  HostScheduler::Shard& sh = *sched_.shards_[r.shard];
  if (!sh.ring.try_push(&r)) {
    if (mode == SubmitMode::try_once) {
      free_slots_.push_back(slot);
      ++counters_.would_blocks;
      return Status::busy;
    }
    ++counters_.ring_full_waits;
    // Make sure the consumer is awake to drain before we wait: our earlier
    // pushes may have raced with its empty-check.
    sh.work_ec.notify();
    sh.space_ec.await([&] { return sh.ring.try_push(&r); }, sched_.spin_);
  }
  sh.work_ec.notify();
  ++counters_.submitted;
  if (id != nullptr) *id = next_id_;
  ++next_id_;
  return Status::ok;
}

Status QueuePair::submit_write(SectorIndex sector, std::uint64_t value, SubmitMode mode,
                               RequestId* id) {
  return submit(OpKind::write, sector, value, {}, mode, id);
}

Status QueuePair::submit_read(SectorIndex sector, SubmitMode mode, RequestId* id) {
  return submit(OpKind::read, sector, 0, {}, mode, id);
}

Status QueuePair::submit_write_run(SectorIndex first, std::span<const std::uint64_t> values,
                                   SubmitMode mode, RequestId* id) {
  return submit(OpKind::write_run, first, 0, values, mode, id);
}

std::size_t QueuePair::poll(std::span<Completion> out) {
  checker_.check("QueuePair::poll");
  std::size_t n = 0;
  const std::size_t rings = completion_rings_.size();
  while (n < out.size()) {
    bool any = false;
    for (std::size_t i = 0; i < rings && n < out.size(); ++i) {
      // Round-robin across shards so one busy shard cannot starve another's
      // completions out of a small `out` span.
      SpscRing<std::uint32_t>& ring = *completion_rings_[(poll_cursor_ + i) % rings];
      std::uint32_t slot = 0;
      if (!ring.try_pop(&slot)) continue;
      any = true;
      const Request& r = slots_[slot];
      // latency_ns holds the submit time until the reap time is known.
      out[n++] = Completion{r.id, r.op, r.status, r.value, r.submit_ns};
      free_slots_.push_back(slot);
    }
    if (!any) break;
    poll_cursor_ = (poll_cursor_ + 1) % rings;
  }
  if (n == 0) return 0;
  // One clock read for the whole reap, after every pop: the clock read waits
  // for the loads before it, so reading it per completion would serialize
  // the cross-core misses on each ring entry and slot.
  const std::uint64_t end = now_ns();
  for (Completion& c : out.first(n)) {
    c.latency_ns = end > c.latency_ns ? end - c.latency_ns : 0;
    (c.op == OpKind::read ? read_hist_ : write_hist_).record(c.latency_ns);
  }
  counters_.completed += n;
  return n;
}

bool QueuePair::any_completion_visible() const noexcept {
  for (const auto& ring : completion_rings_) {
    if (!ring->empty()) return true;
  }
  return false;
}

std::size_t QueuePair::wait(std::span<Completion> out) {
  checker_.check("QueuePair::wait");
  SWL_REQUIRE(!out.empty(), "wait needs room for at least one completion");
  for (;;) {
    const std::size_t n = poll(out);
    if (n > 0) return n;
    if (counters_.inflight() == 0) return 0;
    completion_ec_.await([this] { return any_completion_visible(); }, sched_.spin_);
  }
}

Status QueuePair::write_sector(SectorIndex sector, std::uint64_t value) {
  SWL_REQUIRE(counters_.inflight() == 0, "sync helpers need an idle stream");
  const Status st = submit_write(sector, value, SubmitMode::blocking);
  if (st != Status::ok) return st;
  Completion c;
  const std::size_t n = wait({&c, 1});
  SWL_REQUIRE(n == 1, "submitted request must complete");
  return c.status;
}

Status QueuePair::read_sector(SectorIndex sector, std::uint64_t* value) {
  SWL_REQUIRE(value != nullptr, "null output");
  SWL_REQUIRE(counters_.inflight() == 0, "sync helpers need an idle stream");
  const Status st = submit_read(sector, SubmitMode::blocking);
  if (st != Status::ok) return st;
  Completion c;
  const std::size_t n = wait({&c, 1});
  SWL_REQUIRE(n == 1, "submitted request must complete");
  if (c.status == Status::ok) *value = c.value;
  return c.status;
}

Status QueuePair::write_sectors(SectorIndex first, std::uint64_t count,
                                std::uint64_t first_value) {
  SWL_REQUIRE(count > 0, "empty sector run");
  SWL_REQUIRE(counters_.inflight() == 0, "sync helpers need an idle stream");
  const std::uint32_t spp = sched_.sectors_per_page_;
  // Split at page boundaries: each chunk stays on one shard, and the
  // consumer-side run execution mirrors write_sectors' page handling.
  std::array<std::uint64_t, 8> chunk{};
  SectorIndex sector = first;
  std::uint64_t value = first_value;
  std::uint64_t remaining = count;
  std::uint64_t submitted_here = 0;
  while (remaining > 0) {
    const std::uint64_t lane = sector % spp;
    const std::uint64_t len = std::min<std::uint64_t>(spp - lane, remaining);
    for (std::uint64_t i = 0; i < len; ++i) chunk[i] = value + i;
    const Status st =
        submit_write_run(sector, std::span<const std::uint64_t>(chunk.data(), len),
                         SubmitMode::blocking);
    SWL_REQUIRE(st == Status::ok, "blocking submit on an idle stream cannot fail");
    ++submitted_here;
    sector += len;
    value += len;
    remaining -= len;
  }
  // Reap every chunk; report the first failure in sector order (completions
  // may arrive shard-interleaved, so order by request id).
  Status result = Status::ok;
  RequestId first_bad = ~RequestId{0};
  std::array<Completion, 16> comps;
  std::uint64_t reaped = 0;
  while (reaped < submitted_here) {
    const std::size_t n = wait(comps);
    SWL_REQUIRE(n > 0, "submitted requests must complete");
    for (std::size_t i = 0; i < n; ++i) {
      if (comps[i].status != Status::ok && comps[i].id < first_bad) {
        first_bad = comps[i].id;
        result = comps[i].status;
      }
    }
    reaped += n;
  }
  return result;
}

// ---------------------------------------------------------------------------
// HostScheduler
// ---------------------------------------------------------------------------

HostScheduler::HostScheduler(std::vector<ShardStack> stacks, HostConfig config)
    : config_(config) {
  SWL_REQUIRE(!stacks.empty(), "at least one shard stack required");
  SWL_REQUIRE(config_.queue_depth > 0, "queue depth must be positive");
  shards_.reserve(stacks.size());
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    ShardStack& s = stacks[i];
    SWL_REQUIRE(s.chip != nullptr && s.layer != nullptr && s.dev != nullptr,
                "incomplete shard stack");
    shards_.push_back(std::make_unique<Shard>(static_cast<unsigned>(i), std::move(s),
                                              config_.submission_ring_capacity));
  }
  const bdev::BlockDevice& first = *shards_.front()->stack.dev;
  sectors_per_page_ = first.sectors_per_page();
  for (const auto& sh : shards_) {
    SWL_REQUIRE(sh->stack.dev->sector_count() == first.sector_count() &&
                    sh->stack.dev->sectors_per_page() == sectors_per_page_,
                "shard stacks must have identical geometry");
  }
  sector_count_ = first.sector_count() * shards_.size();
}

HostScheduler::~HostScheduler() { stop(); }

QueuePair& HostScheduler::open_queue_pair() {
  SWL_REQUIRE(!started_, "open queue pairs before start()");
  const auto index = static_cast<unsigned>(queue_pairs_.size());
  queue_pairs_.push_back(std::unique_ptr<QueuePair>(
      new QueuePair(*this, index, shard_count(), config_.queue_depth)));
  return *queue_pairs_.back();
}

std::chrono::nanoseconds spin_budget_for(std::size_t consumers, std::size_t queue_pairs,
                                         unsigned cpus) noexcept {
  return cpus > 1 && consumers + queue_pairs < cpus ? kSpinBudget : std::chrono::nanoseconds{0};
}

void HostScheduler::start() {
  SWL_REQUIRE(!started_, "scheduler already started");
  started_ = true;
  spin_ = spin_budget_for(shards_.size(), queue_pairs_.size(), usable_cpu_count());
  for (auto& sh : shards_) {
    // Ownership handoff: the consumer thread becomes the stack's owner.
    sh->stack.chip->detach_owner_thread();
    sh->stack.dev->detach_owner_thread();
  }
  for (auto& sh : shards_) {
    Shard* shard = sh.get();
    sh->thread = std::thread([this, shard] { consumer_loop(*shard); });
  }
  // Queue pairs bind to whichever client thread touches them first.
  for (auto& qp : queue_pairs_) qp->checker_.detach();
}

void HostScheduler::stop() {
  if (!started_ || stopped_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& sh : shards_) sh->work_ec.notify();
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  stopped_ = true;
  for (auto& sh : shards_) {
    // Hand the stacks back so the stopping thread can inspect them.
    sh->stack.chip->detach_owner_thread();
    sh->stack.dev->detach_owner_thread();
  }
  for (auto& qp : queue_pairs_) qp->checker_.detach();
}

Status HostScheduler::read_sector_direct(SectorIndex sector, std::uint64_t* value) {
  SWL_REQUIRE(!running(), "direct reads require owned (stopped) stacks");
  SWL_REQUIRE(sector < sector_count_, "sector out of range");
  return shards_[shard_of(sector)]->stack.dev->read_sector(local_sector(sector), value);
}

void HostScheduler::consumer_loop(Shard& shard) {
  std::vector<QueuePair::Request*> batch;
  batch.reserve(kDrainBatch);
  std::vector<std::uint64_t> run_values;
  run_values.reserve(kDrainBatch * 8);
  for (;;) {
    batch.clear();
    QueuePair::Request* r = nullptr;
    while (batch.size() < kDrainBatch && shard.ring.try_pop(&r)) batch.push_back(r);
    if (batch.empty()) {
      // stop() runs after the clients' last push, so once stop_ reads true
      // an empty ring stays empty.
      if (stop_.load(std::memory_order_acquire) && shard.ring.empty()) return;
      shard.counters.parks += shard.work_ec.await(
          [&] { return !shard.ring.empty() || stop_.load(std::memory_order_acquire); }, spin_);
      continue;
    }
    // We freed ring space: wake producers parked on a full ring.
    shard.space_ec.notify();
    ++shard.counters.drain_batches;
    execute_batch(shard, batch, run_values);
  }
}

void HostScheduler::execute_batch(Shard& shard, std::span<QueuePair::Request* const> batch,
                                  std::vector<std::uint64_t>& run_values) {
  bdev::BlockDevice& dev = *shard.stack.dev;
  const std::size_t n = batch.size();
  std::size_t i = 0;
  while (i < n) {
    QueuePair::Request& r = *batch[i];
    if (r.op == OpKind::read) {
      r.status = dev.read_sector(r.local_first, &r.value);
      complete(shard, r);
      ++i;
      continue;
    }
    // Write-like request: optionally gather the adjacent-sector run that
    // follows it in the batch, so whole pages take the token fast path.
    std::size_t j = i + 1;
    if (config_.coalesce_writes) {
      SectorIndex next = r.local_first + r.run_count;
      while (j < n) {
        const QueuePair::Request& w = *batch[j];
        if (w.op == OpKind::read || w.local_first != next) break;
        next += w.run_count;
        ++j;
      }
    }
    if (j == i + 1) {
      // Single request: execute exactly as the serial path would (this is
      // the whole batch when coalescing is off — the bit-identical canary).
      if (r.op == OpKind::write) {
        r.status = dev.write_sector(r.local_first, r.value);
      } else {
        r.status = dev.write_sector_run(
            r.local_first, std::span<const std::uint64_t>(r.run_values.data(), r.run_count));
      }
      complete(shard, r);
      ++i;
      continue;
    }
    // Coalesced run: one write_sector_run over the merged values.
    run_values.clear();
    for (std::size_t k = i; k < j; ++k) {
      const QueuePair::Request& w = *batch[k];
      if (w.op == OpKind::write) {
        run_values.push_back(w.value);
      } else {
        run_values.insert(run_values.end(), w.run_values.begin(),
                          w.run_values.begin() + w.run_count);
      }
    }
    std::uint64_t done = 0;
    const Status st = dev.write_sector_run(r.local_first, run_values, &done);
    ++shard.counters.coalesced_runs;
    shard.counters.coalesced_requests += j - i;
    // Attribute the run's outcome to its requests: everything fully covered
    // by the durably-written prefix succeeded; from the failure point on,
    // re-execute individually so each request earns its own status.
    std::uint64_t covered = 0;
    std::size_t k = i;
    for (; k < j; ++k) {
      QueuePair::Request& w = *batch[k];
      const std::uint64_t len = w.op == OpKind::write ? 1 : w.run_count;
      if (st != Status::ok && covered + len > done) break;
      covered += len;
      w.status = Status::ok;
      complete(shard, w);
    }
    for (; k < j; ++k) {
      QueuePair::Request& w = *batch[k];
      if (w.op == OpKind::write) {
        w.status = dev.write_sector(w.local_first, w.value);
      } else {
        w.status = dev.write_sector_run(
            w.local_first, std::span<const std::uint64_t>(w.run_values.data(), w.run_count));
      }
      complete(shard, w);
    }
    i = j;
  }
}

void HostScheduler::complete(Shard& shard, QueuePair::Request& request) {
  ++shard.counters.requests_executed;
  QueuePair& qp = *request.owner;
  const bool pushed = qp.completion_rings_[shard.index]->try_push(request.slot);
  SWL_ASSERT(pushed, "completion ring sized to the queue depth can never overflow");
  qp.completion_ec_.notify();
}

}  // namespace swl::host
