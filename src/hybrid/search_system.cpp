#include "src/hybrid/search_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ssdse {

namespace {

/// CPU cost of serving an already-computed result (lookup + transmit).
constexpr Micros kResultServeCpu = micros(50.0);

/// Modelled CPU of live-index mutations: fixed dispatch plus per-posting
/// segment-append / list-rewrite work. Deterministic constants (no
/// clocks) so churn runs stay reproducible.
constexpr Micros kIngestApplyCpu = micros(2.0);
constexpr Micros kIngestPerPosting = micros(0.01);
constexpr Micros kMergePerPosting = micros(0.02);

/// Size a NAND array so its post-OP logical space covers `logical_bytes`.
NandConfig size_nand(NandConfig nand, Bytes logical_bytes, double op) {
  const Bytes block = nand.block_bytes();
  const auto logical_blocks =
      static_cast<std::uint64_t>((logical_bytes + block - 1) / block);
  const auto physical = static_cast<std::uint64_t>(
                            std::ceil(static_cast<double>(logical_blocks) /
                                      (1.0 - op))) +
                        16;
  nand.num_blocks = static_cast<std::uint32_t>(physical);
  return nand;
}

}  // namespace

SearchSystem::SearchSystem(const SystemConfig& cfg) : cfg_(cfg) {
  build(nullptr);
}

SearchSystem::SearchSystem(const SystemConfig& cfg, IndexView& index)
    : cfg_(cfg) {
  build(&index);
}

SearchSystem::SearchSystem(const SystemConfig& cfg, MaterializedIndex& index,
                           const MaterializedCorpus& corpus)
    : cfg_(cfg), corpus_(&corpus) {
  build(&index);
}

void SearchSystem::build(IndexView* external_index) {
  index_on_ssd_ = cfg_.index_on_ssd;

  if (external_index != nullptr) {
    index_ = external_index;
  } else {
    owned_index_ = std::make_unique<AnalyticIndex>(cfg_.corpus);
    index_ = owned_index_.get();
  }
  if (cfg_.log.vocab_size != index_->vocab_size()) {
    cfg_.log.vocab_size = index_->vocab_size();
  }

  // Devices. The HDD must hold the index image.
  HddConfig hc = cfg_.hdd;
  hc.capacity = std::max<Bytes>(hc.capacity,
                                index_->layout().total_bytes() + GiB);
  hdd_ = std::make_unique<HddModel>(hc);
  if (cfg_.hdd_faults.armed()) {
    // Fault decorator in front of the index store; an unarmed plan
    // skips the wrapper entirely so fault-free runs stay bit-identical.
    faulty_hdd_ = std::make_unique<FaultyDevice>(*hdd_, cfg_.hdd_faults);
  }
  ram_ = std::make_unique<RamDevice>(cfg_.ram);

  CacheConfig cc = cfg_.cache;
  if (!cfg_.use_cache) {
    cc.result_cache = false;
    cc.list_cache = false;
    cc.l2 = false;
  }

  if (cc.l2) {
    // Cache SSD sized to the configured cache capacities (unless the
    // caller fixed a non-default geometry).
    SsdConfig sc = cfg_.cache_ssd;
    const Bytes wanted =
        cc.ssd_result_capacity + cc.ssd_list_capacity + 64 * MiB;
    if (sc.nand.num_blocks == NandConfig{}.num_blocks) {
      sc.nand = size_nand(sc.nand, wanted, sc.ftl.over_provisioning);
    }
    cache_ssd_ = std::make_unique<Ssd>(sc);
  }
  if (index_on_ssd_) {
    SsdConfig sc = cfg_.cache_ssd;  // same flash technology
    sc.nand =
        size_nand(sc.nand, index_->layout().total_bytes() + 64 * MiB,
                  sc.ftl.over_provisioning);
    index_ssd_ = std::make_unique<Ssd>(sc);
    format_index_ssd();
  }

  gen_ = std::make_unique<QueryLogGenerator>(cfg_.log);
  scorer_ = Scorer(cfg_.scorer);

  // Offline log analysis: derives TEV and feeds the CBSLRU preload.
  const bool cost_based = cc.policy != CachePolicy::kLru;
  if (cfg_.use_cache && cost_based && cfg_.training_queries > 0) {
    analysis_ = analyze_log(cfg_.log, *index_, cfg_.training_queries,
                            cc.block_bytes);
    if (cc.tev == 0.0) {
      // Mild admission bar (Fig. 4's HDD tier): drop only lists whose
      // frequency does not justify their block count — a once-accessed
      // list bigger than ~1 MiB (8 blocks) is not worth flash wear —
      // and never more than the bottom 2 % of the trained EV ranking.
      cc.tev = std::min(analysis_->tev_for_fraction(0.98), 0.125);
    }
  }

  cm_ = std::make_unique<CacheManager>(cc, cache_ssd_.get(), index_store(),
                                       *ram_, *index_);

  // Warm restart (src/recovery): rebuild the SSD caches from the last
  // good snapshot + journal tail instead of starting cold.
  if (cfg_.recovery.enabled && cm_->supports_persistence()) {
    persistence_ = std::make_unique<recovery::PersistenceManager>(
        cfg_.recovery.dir, recovery::cache_config_fingerprint(cc));
    if (auto image = persistence_->recover()) {
      if (const auto restore_time = cm_->restore_image(*image)) {
        persistence_->note_restore_flash_time(*restore_time);
        // Block adoption re-seeds the fresh FTL; that is recovery work
        // (data already resident), not run traffic.
        cache_ssd_->reset_stats();
        warm_started_ = true;
      } else {
        // Every frame checked out, but the content does not fit this
        // cache: start cold rather than adopt a corrupt image.
        persistence_->note_image_rejected();
      }
    }
  }

  // Live index: overlay + (with recovery) ingest-log replay. Runs after
  // the cache restore so replayed mutation epochs are judged against the
  // recovered entries' birth ticks, and before the static preload so
  // preloaded results are computed from the reconverged index.
  if (cfg_.ingest.enabled) {
    auto* mat = dynamic_cast<MaterializedIndex*>(index_);
    if (mat == nullptr || corpus_ == nullptr) {
      throw std::invalid_argument(
          "SearchSystem: cfg.ingest.enabled needs the materialized "
          "index + corpus constructor");
    }
    live_ = std::make_unique<ingest::LiveIndex>(*mat, *corpus_, cfg_.ingest);
    mat->attach_overlay(live_.get());
    if (cfg_.recovery.enabled && !cfg_.recovery.dir.empty()) {
      const std::string log_path = cfg_.recovery.dir + "/ingest.ssdse";
      replay_ingest_log(log_path);
      ingest_log_ = std::make_unique<ingest::IngestLog>(log_path);
    }
  }

  if (!warm_started_ && cfg_.use_cache &&
      cc.policy == CachePolicy::kCbslru && analysis_) {
    cm_->preload_static(*analysis_, [this](QueryId qid) {
      return scorer_.score(*index_, gen_->query_for_rank(qid.raw())).result;
    });
  }

  if (persistence_) {
    // Fold the starting state (static preload or recovered image) into
    // a fresh snapshot, then journal from there.
    persistence_->checkpoint(cm_->export_image());
    cm_->set_journal_sink(persistence_.get());
  }

  register_telemetry();
}

void SearchSystem::register_telemetry() {
  using telemetry::TraceStage;
  auto& r = registry_;

  const CacheManagerStats* cs = &cm_->stats();
  r.counter("cache.result.probes", &cs->result_lookups);
  r.counter("cache.l1.result.hits", &cs->result_hits_mem);
  r.counter("cache.l2.result.hits", &cs->result_hits_ssd);
  r.counter("cache.list.probes", &cs->list_lookups);
  r.counter("cache.l1.list.hits", &cs->list_hits_mem);
  r.counter("cache.l2.list.hits", &cs->list_hits_ssd);
  r.counter("cache.hdd.list.reads", &cs->hdd_list_reads);
  r.counter("cache.result.discarded", &cs->results_discarded);
  r.counter("cache.list.discarded", &cs->lists_discarded);
  r.counter("cache.result.expired", &cs->results_expired);
  r.counter("cache.list.expired", &cs->lists_expired);
  // Live-index coherence (DESIGN.md §12). All zero without churn.
  r.counter("cache.stale.result_invalidations",
            &cs->stale_result_invalidations);
  r.counter("cache.stale.list_invalidations", &cs->stale_list_invalidations);
  r.counter("cache.stale.ssd_result_misses", &cs->stale_ssd_result_misses);
  r.counter("cache.stale.ssd_list_misses", &cs->stale_ssd_list_misses);
  r.gauge("cache.background.flash_us",
          [cs] { return cs->background_flash_time.value(); });

  // Fault / degradation accounting (DESIGN.md §10). All zero and inert
  // in fault-free runs.
  r.counter("cache.faults.ssd_read_errors", &cs->ssd_read_errors);
  r.counter("cache.faults.hdd_read_errors", &cs->hdd_read_errors);
  r.counter("cache.breaker.bypassed_probes", &cs->breaker_bypassed_probes);
  r.counter("cache.breaker.bypassed_inserts", &cs->breaker_bypassed_inserts);
  const CircuitBreakerStats* bs = &cm_->breaker().stats();
  r.counter("cache.breaker.trips", &bs->trips);
  r.counter("cache.breaker.reopens", &bs->reopens);
  r.counter("cache.breaker.closes", &bs->closes);
  r.counter("cache.breaker.bypassed_ops", &bs->bypassed_ops);
  r.gauge("cache.breaker.open", [this] {
    return cm_->breaker().state() == CircuitBreaker::State::kClosed ? 0.0
                                                                    : 1.0;
  });
  if (faulty_hdd_) {
    const FaultyDeviceStats* hf = &faulty_hdd_->fault_stats();
    r.counter("hdd.faults.read_uncs", &hf->read_uncs);
    r.counter("hdd.faults.read_retries", &hf->read_retries);
    r.counter("hdd.faults.write_fails", &hf->write_fails);
    r.counter("hdd.faults.latency_spikes", &hf->latency_spikes);
  }

  const WriteBufferStats* wb = &cm_->write_buffer().stats();
  r.counter("cache.wb.buffered", &wb->buffered);
  r.counter("cache.wb.flush_groups", &wb->flush_groups);
  r.counter("cache.wb.hits", &wb->buffer_hits);
  r.counter("cache.wb.cancelled", &wb->cancelled);

  if (cache_ssd_) {
    const FtlStats* fs = &cache_ssd_->ftl().stats();
    const NandStats* ns = &cache_ssd_->nand().stats();
    const Ssd* ssd = cache_ssd_.get();
    r.counter("ssd.cache.host.reads", &fs->host_reads);
    r.counter("ssd.cache.host.writes", &fs->host_writes);
    r.counter("ssd.cache.host.trims", &fs->host_trims);
    r.counter("ssd.cache.gc.invocations", &fs->gc_invocations);
    r.counter("ssd.cache.gc.page_copies", &fs->gc_page_copies);
    r.gauge("ssd.cache.ftl.gc_busy_us",
            [fs] { return fs->gc_busy.value(); });
    r.counter("ssd.cache.nand.page_reads", &ns->page_reads);
    r.counter("ssd.cache.nand.page_programs", &ns->page_programs);
    r.counter("ssd.cache.nand.block_erases", &ns->block_erases);
    r.gauge("ssd.cache.wear.mean_erases",
            [ssd] { return ssd->nand().mean_erase_count(); });
    r.gauge("ssd.cache.wear.max_erases", [ssd] {
      return static_cast<double>(ssd->nand().max_erase_count());
    });
    // NAND fault + bad-block management counters (zero with faults off).
    r.counter("ssd.cache.faults.read_retries", &fs->read_retries);
    r.counter("ssd.cache.faults.uncorrectable_reads",
              &fs->uncorrectable_reads);
    r.counter("ssd.cache.faults.program_failures", &fs->program_failures);
    r.counter("ssd.cache.faults.remapped_writes", &fs->remapped_writes);
    r.counter("ssd.cache.faults.grown_bad_blocks", &fs->grown_bad_blocks);
  }

  if (live_) {
    const IngestStats* is = &ingest_stats_;
    r.counter("ingest.docs", &is->docs);
    r.counter("ingest.deletes", &is->deletes);
    r.counter("ingest.delete_misses", &is->delete_misses);
    r.counter("ingest.merges", &is->merges);
    r.counter("ingest.merged_terms", &is->merged_terms);
    r.counter("ingest.merged_postings", &is->merged_postings);
    r.counter("ingest.replayed_records", &is->replayed_records);
    r.counter("ingest.replay_torn_bytes", &is->replay_torn_bytes);
    r.gauge("ingest.apply_us", [is] { return is->apply_time.value(); });
    r.gauge("ingest.merge_us", [is] { return is->merge_time.value(); });
    const ingest::LiveIndex* li = live_.get();
    r.gauge("ingest.segment.postings", [li] {
      return static_cast<double>(li->segment().total_postings());
    });
    r.gauge("ingest.segment.arena_bytes", [li] {
      return static_cast<double>(li->segment().arena_bytes());
    });
    r.gauge("ingest.deleted_docs", [li] {
      return static_cast<double>(li->deleted_docs());
    });
    if (cm_->ssd_lists() != nullptr) {
      r.counter("ssd.cache.lists.stale_marks",
                &cm_->ssd_lists()->stats().stale_marks);
    }
  }

  // Which scorer served the queries: the measured pass over a
  // MaterializedIndex's postings (1) or the analytic cost model (0).
  r.gauge_value("index.materialized",
                dynamic_cast<const MaterializedIndex*>(index_) != nullptr
                    ? 1.0
                    : 0.0);
  if (const auto* analytic = dynamic_cast<const AnalyticIndex*>(index_)) {
    r.gauge_value("index.model.build_ms", analytic->model().build_wall_ms());
  }

  // Sampling loss across every device's I/O trace collector: records
  // counted but not stored once a capacity cap is hit. Zero unless a
  // bench enables collectors and caps them.
  r.counter_fn("telemetry.trace.dropped", [this] {
    std::uint64_t d = hdd_->collector().dropped() + ram_->collector().dropped();
    if (faulty_hdd_) d += faulty_hdd_->collector().dropped();
    if (cache_ssd_) d += cache_ssd_->collector().dropped();
    if (index_ssd_) d += index_ssd_->collector().dropped();
    return d;
  });

  metrics_.register_into(r, "query");
  r.gauge("query.throughput_qps", [this] { return throughput_qps(); });

  for (std::size_t i = 0; i < telemetry::kNumTraceStages; ++i) {
    const auto stage = static_cast<TraceStage>(i);
    r.histogram(std::string("trace.") + telemetry::to_string(stage) + ".us",
                &tracer_.stage_hist(stage));
  }
}

bool SearchSystem::checkpoint() {
  if (!persistence_) return false;
  queries_since_checkpoint_ = 0;
  return persistence_->checkpoint(cm_->export_image());
}

void SearchSystem::format_index_ssd() {
  const Bytes page = index_ssd_->config().nand.page_bytes;
  const Lpn pages =
      std::min<Lpn>((index_->layout().total_bytes() + page - 1) / page,
                    index_ssd_->logical_pages());
  // Formatting happens before any traffic; a program failure here means
  // the flash index store is unusable from the start, so surface it
  // instead of silently serving an unformatted device.
  const IoResult io = index_ssd_->write_pages(0, pages);
  if (io.status == IoStatus::kWriteFailed) {
    throw std::runtime_error(
        "SearchSystem: index SSD format failed (program failure)");
  }
  index_ssd_->reset_stats();
}

SearchSystem::QueryOutcome SearchSystem::execute(const Query& q) {
  QueryOutcome out;
  Micros t = micros(0);
  cm_->advance_time();  // logical clock for the TTL dynamic scenario

  using telemetry::TraceStage;
  tracer_.begin_query(q.id);
  // Background flash work (write-buffer flushes, and the GC they drag
  // in) is accounted device-side, not on `t`; snapshot the accumulators
  // so the deltas this query causes become spans. GC only runs on
  // writes, and all cache-SSD writes are background, so the GC delta is
  // a subset of the background delta.
  const Micros trace_bg0 = cm_->stats().background_flash_time;
  const Micros trace_gc0 =
      cache_ssd_ ? cache_ssd_->ftl().stats().gc_busy : Micros{};
  const auto trace_finish = [&](Micros total) {
    const Micros bg = cm_->stats().background_flash_time - trace_bg0;
    const Micros gc =
        (cache_ssd_ ? cache_ssd_->ftl().stats().gc_busy : Micros{}) -
        trace_gc0;
    if (bg > gc) tracer_.add_span(TraceStage::kWriteBufferFlush, bg - gc);
    if (gc > Micros{}) tracer_.add_span(TraceStage::kFtlGc, gc);
    out.trace = tracer_.end_query(total);
  };

  const auto implied = static_cast<std::uint64_t>(1 + q.terms.size());
  Tier rtier = Tier::kMemory;
  const Micros trace_probe0 = t;
  const ResultEntry* hit = cm_->lookup_result(q.id, q.terms, &rtier, &t);
  tracer_.add_span(TraceStage::kResultProbe, t - trace_probe0);
  if (hit) {
    t += kResultServeCpu;
    out.response = t;
    out.result_from_cache = true;
    out.situation = classify_situation(true, rtier, false, false, false);
    out.result = *hit;
    metrics_.record(out.situation, t);
    // A result hit covers the query's whole implied data demand.
    metrics_.record_coverage(implied, implied);
    trace_finish(t);
    maybe_checkpoint();
    return out;
  }

  bool used_mem = false, used_ssd = false, used_hdd = false;
  // Three-level extension: a cached intersection covers both terms of a
  // pair, skipping their list fetches entirely. Queries are a handful
  // of terms, so the covered set is a stack bitmask, not a heap vector
  // (execute() is the hot loop; one allocation per query shows up).
  std::uint64_t covered_mask = 0;
  std::vector<bool> covered_wide;  // only for pathological term counts
  const bool wide = q.terms.size() > 64;
  if (wide) covered_wide.assign(q.terms.size(), false);
  const auto covered = [&](std::size_t i) {
    return wide ? static_cast<bool>(covered_wide[i])
                : ((covered_mask >> i) & 1) != 0;
  };
  const auto mark_covered = [&](std::size_t i) {
    if (wide) {
      covered_wide[i] = true;
    } else {
      covered_mask |= 1ull << i;
    }
  };
  const Micros trace_ix0 = t;
  for (std::size_t i = 0; i + 1 < q.terms.size(); i += 2) {
    if (cm_->lookup_intersection(q.terms[i], q.terms[i + 1], &t)) {
      mark_covered(i);
      mark_covered(i + 1);
      used_mem = true;
    }
  }
  // Intersection probes are memory-resident list service.
  if (t > trace_ix0) tracer_.add_span(TraceStage::kListFetchMem, t - trace_ix0);
  std::uint64_t covered_requests = 0;
  for (std::size_t i = 0; i < q.terms.size(); ++i) {
    if (covered(i)) {
      ++covered_requests;  // intersection hit covered this term
      continue;
    }
    const Micros trace_fetch0 = t;
    switch (cm_->fetch_list(q.terms[i], &t)) {
      case Tier::kMemory:
        used_mem = true;
        ++covered_requests;
        tracer_.add_span(TraceStage::kListFetchMem, t - trace_fetch0);
        break;
      case Tier::kSsd:
        used_ssd = true;
        ++covered_requests;
        tracer_.add_span(TraceStage::kListFetchSsd, t - trace_fetch0);
        break;
      case Tier::kHdd:
        used_hdd = true;
        tracer_.add_span(TraceStage::kListFetchHdd, t - trace_fetch0);
        break;
    }
  }
  metrics_.record_coverage(covered_requests, implied);

  ScoreOutcome scored = scorer_.score(*index_, q);
  t += scored.cpu_time;
  tracer_.add_span(TraceStage::kScore, scored.cpu_time);
  cm_->insert_result(scored.result);
  // Admit intersections computed as a by-product of scoring.
  for (std::size_t i = 0; i + 1 < q.terms.size(); i += 2) {
    if (!covered(i)) cm_->insert_intersection(q.terms[i], q.terms[i + 1]);
  }

  out.response = t;
  out.result_from_cache = false;
  out.situation =
      classify_situation(false, rtier, used_mem, used_ssd, used_hdd);
  out.result = std::move(scored.result);
  metrics_.record(out.situation, t);
  trace_finish(t);
  maybe_checkpoint();
  return out;
}

void SearchSystem::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    execute(gen_->next());
  }
}

void SearchSystem::maybe_checkpoint() {
  if (!persistence_ || cfg_.recovery.snapshot_every == 0) return;
  if (++queries_since_checkpoint_ < cfg_.recovery.snapshot_every) return;
  checkpoint();
}

namespace {

/// Canonical form of a document bag: term-ascending, duplicate terms
/// coalesced, zero tfs dropped. Both the live apply and the log replay
/// see the same canonical bag, so replay reconverges bit-identically.
ingest::DocBag normalize_bag(ingest::DocBag bag, std::uint32_t vocab) {
  std::sort(bag.begin(), bag.end());
  ingest::DocBag norm;
  norm.reserve(bag.size());
  for (const auto& [term, tf] : bag) {
    if (term.raw() >= vocab) {
      throw std::out_of_range("ingest_document: term beyond vocabulary");
    }
    if (tf == 0) continue;
    if (!norm.empty() && norm.back().first == term) {
      norm.back().second += tf;
    } else {
      norm.emplace_back(term, tf);
    }
  }
  return norm;
}

}  // namespace

DocId SearchSystem::ingest_document(
    std::vector<std::pair<TermId, std::uint32_t>> bag) {
  if (!live_) {
    throw std::logic_error("ingest_document: cfg.ingest.enabled is off");
  }
  ingest::DocBag norm = normalize_bag(std::move(bag), index_->vocab_size());
  const auto id = static_cast<DocId>(index_->num_docs());
  const std::uint64_t tick = cm_->now();
  // Write-ahead: the log record lands before the in-memory apply, so a
  // crash between the two replays the mutation instead of losing it.
  if (ingest_log_) ingest_log_->append_ingest(id, tick, norm);
  const std::size_t postings = norm.size();
  std::vector<TermId> terms;
  terms.reserve(norm.size());
  for (const auto& [term, tf] : norm) {
    (void)tf;
    terms.push_back(term);
  }
  const DocId assigned = live_->ingest(std::move(norm));
  if (assigned != id) {
    throw std::logic_error("ingest_document: doc id assignment diverged");
  }
  cm_->note_term_mutations(terms, tick);
  // A new doc slot changes N — and with it every term's idf — so all
  // result scores cached before this tick go stale, not just this
  // bag's terms. Deletes keep their slot (N stable) and skip this.
  cm_->note_doc_count_change(tick);
  ++ingest_stats_.docs;
  const Micros cost =
      kIngestApplyCpu + kIngestPerPosting * static_cast<double>(postings);
  ingest_stats_.apply_time += cost;
  tracer_.begin_query(QueryId{id.raw()});
  tracer_.add_span(telemetry::TraceStage::kIngestApply, cost);
  tracer_.end_query(cost);
  if (live_->should_merge()) merge_now();
  return assigned;
}

bool SearchSystem::delete_document(DocId doc) {
  if (!live_) {
    throw std::logic_error("delete_document: cfg.ingest.enabled is off");
  }
  // Pre-check so misses leave no journal record: replaying a no-op
  // delete would be harmless but would skew replayed-record accounting.
  if (doc.raw() >= index_->num_docs() || live_->is_deleted(doc)) {
    ++ingest_stats_.delete_misses;
    return false;
  }
  const std::uint64_t tick = cm_->now();
  if (ingest_log_) ingest_log_->append_delete(doc, tick);
  std::vector<TermId> terms;
  if (!live_->erase(doc, &terms)) {
    throw std::logic_error("delete_document: erase diverged from pre-check");
  }
  cm_->note_term_mutations(terms, tick);
  ++ingest_stats_.deletes;
  const Micros cost =
      kIngestApplyCpu + kIngestPerPosting * static_cast<double>(terms.size());
  ingest_stats_.apply_time += cost;
  tracer_.begin_query(QueryId{doc.raw()});
  tracer_.add_span(telemetry::TraceStage::kIngestApply, cost);
  tracer_.end_query(cost);
  if (live_->should_merge()) merge_now();
  return true;
}

void SearchSystem::merge_now() {
  if (!live_ || live_->clean()) return;
  const std::uint64_t tick = cm_->now();
  // Seal before folding: replay re-runs the merge at the same point in
  // the mutation stream. A torn seal record replays to the pre-merge
  // state, which is query-identical (merging is content-transparent).
  if (ingest_log_) {
    ingest_log_->append_merge_seal(index_->num_docs(), tick);
  }
  const ingest::MergeOutcome outcome = live_->merge();
  ++ingest_stats_.merges;
  ingest_stats_.merged_terms += outcome.terms_rebuilt;
  ingest_stats_.merged_postings += outcome.postings_rewritten;
  const Micros cost =
      kMergePerPosting * static_cast<double>(outcome.postings_rewritten);
  ingest_stats_.merge_time += cost;
  tracer_.begin_query(static_cast<QueryId>(ingest_stats_.merges));
  tracer_.add_span(telemetry::TraceStage::kSegmentMerge, cost);
  tracer_.end_query(cost);
}

void SearchSystem::replay_ingest_log(const std::string& log_path) {
  ingest::IngestLog::Scan scan = ingest::IngestLog::scan(log_path);
  if (scan.torn_bytes > 0) {
    // Truncate the torn tail so the next append starts on a frame
    // boundary (same repair discipline as the cache journal).
    ingest::IngestLog::repair(log_path, scan.valid_bytes);
    ingest_stats_.replay_torn_bytes += scan.torn_bytes;
  }
  std::vector<TermId> terms;
  for (ingest::LogRecord& rec : scan.records) {
    switch (rec.type) {
      case recovery::RecordType::kIngest: {
        terms.clear();
        for (const auto& [term, tf] : rec.bag) {
          (void)tf;
          terms.push_back(term);
        }
        live_->ingest(std::move(rec.bag));
        cm_->note_term_mutations(terms, rec.tick);
        cm_->note_doc_count_change(rec.tick);
        ++ingest_stats_.docs;
        break;
      }
      case recovery::RecordType::kDelete: {
        terms.clear();
        if (live_->erase(rec.doc, &terms)) {
          cm_->note_term_mutations(terms, rec.tick);
          ++ingest_stats_.deletes;
        }
        break;
      }
      case recovery::RecordType::kMergeSeal: {
        // Merges replay only where a seal record committed; pending
        // segment state past the last seal stays live (deterministic —
        // replay never invents merge points the original run didn't).
        const ingest::MergeOutcome outcome = live_->merge();
        ++ingest_stats_.merges;
        ingest_stats_.merged_terms += outcome.terms_rebuilt;
        ingest_stats_.merged_postings += outcome.postings_rewritten;
        break;
      }
      default:
        break;
    }
    ++ingest_stats_.replayed_records;
  }
}

}  // namespace ssdse
