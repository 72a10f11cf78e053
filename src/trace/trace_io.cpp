#include "src/trace/trace_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace ssdse {

namespace {
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;
}  // namespace

void write_trace_csv(const std::string& path,
                     std::span<const IoRecord> trace) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  std::fputs("timestamp_us,op,lba,sectors\n", f.get());
  for (const auto& r : trace) {
    std::fprintf(f.get(), "%.3f,%s,%" PRIu64 ",%u\n", r.timestamp.value(),
                 to_string(r.op), r.lba, r.sectors);
  }
}

std::vector<IoRecord> read_trace_csv(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  std::vector<IoRecord> out;
  char line[256];
  bool header = true;
  while (std::fgets(line, sizeof(line), f.get())) {
    if (header) {  // skip the header row
      header = false;
      continue;
    }
    double ts;
    char op;
    std::uint64_t lba;
    unsigned sectors;
    if (std::sscanf(line, "%lf,%c,%" SCNu64 ",%u", &ts, &op, &lba,
                    &sectors) != 4) {
      throw std::runtime_error("malformed trace line in " + path + ": " +
                               line);
    }
    IoOp parsed;
    switch (op) {
      case 'R': parsed = IoOp::kRead; break;
      case 'W': parsed = IoOp::kWrite; break;
      case 'T': parsed = IoOp::kTrim; break;
      default:
        throw std::runtime_error(std::string("unknown op '") + op + "' in " +
                                 path);
    }
    out.push_back(IoRecord{micros(ts), parsed, lba, sectors});
  }
  return out;
}

}  // namespace ssdse
