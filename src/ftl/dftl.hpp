// DFTL (Gupta et al., ASPLOS 2009; paper §II.A): page-level mapping with
// a demand-loaded Cached Mapping Table.
//
// Data-path behaviour is identical to PageFtl (we compose one); DFTL
// adds the translation overhead: a CMT miss costs one translation-page
// read, and evicting a dirty CMT entry costs a translation-page
// read-modify-write. Translation traffic is accounted with Table-III
// latencies and reported in DftlStats; modelling simplification
// (documented in DESIGN.md): translation pages are charged by time and
// op count but not materialized in the NAND array, so `block_erases`
// reflects data-GC only.
#pragma once

#include <memory>

#include "src/ftl/page_ftl.hpp"
#include "src/util/flat_lru_map.hpp"

namespace ssdse {

struct DftlConfig : FtlConfig {
  /// CMT capacity in mapping entries (SRAM budget / 8 B per entry).
  std::size_t cmt_entries = 4096;
  /// Mapping entries per translation page (2 KiB page / 4 B entry).
  std::uint32_t entries_per_tpage = 512;
};

struct DftlStats {
  std::uint64_t cmt_hits = 0;
  std::uint64_t cmt_misses = 0;
  std::uint64_t tpage_reads = 0;
  std::uint64_t tpage_writes = 0;

  [[nodiscard]] double hit_ratio() const {
    const auto total = cmt_hits + cmt_misses;
    return total ? static_cast<double>(cmt_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

class Dftl final : public Ftl {
 public:
  Dftl(NandArray& nand, const DftlConfig& cfg = {});

  [[nodiscard]] Lpn logical_pages() const override { return inner_.logical_pages(); }
  IoResult read(Lpn lpn) override;
  IoResult write(Lpn lpn) override;
  [[nodiscard]] Micros trim(Lpn lpn) override;
  /// Data path is a PageFtl, which absorbs program failures via BBM.
  [[nodiscard]] bool supports_bad_blocks() const override { return true; }
  [[nodiscard]] std::string name() const override { return "dftl"; }

  [[nodiscard]] const DftlStats& dftl_stats() const { return dstats_; }

 private:
  /// Charge the translation cost of touching `lpn`'s mapping entry.
  [[nodiscard]] Micros cmt_access(Lpn lpn, bool dirtying);

  DftlConfig cfg_;
  PageFtl inner_;
  FlatLruMap<Lpn, bool> cmt_;  // value: dirty flag
  DftlStats dstats_;
};

}  // namespace ssdse
