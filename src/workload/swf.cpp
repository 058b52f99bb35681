#include "src/workload/swf.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/error.hpp"

namespace resched::workload {

namespace {

/// Parses one numeric token; nullopt on non-numeric, trailing garbage,
/// or non-finite values. SWF uses -1 for "unknown".
std::optional<double> parse_field(const std::string& tok) {
  try {
    std::size_t pos = 0;
    double v = std::stod(tok, &pos);
    if (pos != tok.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Extracts "MaxProcs: N" style header values. Values that do not parse
/// or do not fit in a positive int are treated as absent — multi-month
/// archives have been seen with garbage header numbers, and std::atoi's
/// overflow behavior is undefined.
int header_int(const std::string& line, const char* key) {
  auto pos = line.find(key);
  if (pos == std::string::npos) return 0;
  pos = line.find(':', pos);
  if (pos == std::string::npos) return 0;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(line.c_str() + pos + 1, &end, 10);
  if (end == line.c_str() + pos + 1 || errno == ERANGE ||
      v > std::numeric_limits<int>::max() || v < 0)
    return 0;
  return static_cast<int>(v);
}

/// Parses one SWF line shared by read_swf and SwfStreamReader: header
/// comments update `header_cpus` in place; data lines return a Job, or
/// nullopt for blank / comment / malformed / skip_invalid-dropped lines
/// (diagnostics recorded per `opts`; throws resched::Error when
/// opts.strict and the line is malformed).
std::optional<Job> parse_swf_line(const std::string& line, int lineno,
                                  const std::string& name,
                                  const SwfReadOptions& opts,
                                  int& header_cpus) {
  if (line.empty()) return std::nullopt;
  if (line[0] == ';') {
    if (int v = header_int(line, "MaxProcs"); v > 0) header_cpus = v;
    else if (int w = header_int(line, "MaxNodes"); w > 0 && header_cpus == 0)
      header_cpus = w;
    return std::nullopt;
  }
  std::istringstream fields(line);
  std::vector<std::string> toks;
  std::string tok;
  while (fields >> tok) toks.push_back(tok);
  if (toks.empty()) return std::nullopt;

  const std::string ctx = name + ":" + std::to_string(lineno);
  auto malformed = [&](const std::string& what) {
    if (opts.strict) throw Error(what + " in " + ctx);
    if (opts.diagnostics != nullptr) {
      SwfDiagnostics& d = *opts.diagnostics;
      ++d.malformed_lines;
      if (static_cast<int>(d.messages.size()) < SwfDiagnostics::kMaxMessages)
        d.messages.push_back(what + " in " + ctx);
    }
  };

  // Field layout: 1 job id, 2 submit, 3 wait, 4 runtime, 5 allocated procs.
  if (toks.size() < 5) {
    malformed("truncated SWF line (" + std::to_string(toks.size()) +
              " of 5 required fields)");
    return std::nullopt;
  }
  std::optional<double> vals[4];
  for (int f = 0; f < 4; ++f) {
    vals[f] = parse_field(toks[static_cast<std::size_t>(f) + 1]);
    if (!vals[f]) {
      malformed("malformed SWF field '" +
                toks[static_cast<std::size_t>(f) + 1] + "'");
      return std::nullopt;
    }
  }
  const double submit = *vals[0];
  const double wait = *vals[1];
  const double runtime = *vals[2];
  const double procs_raw = *vals[3];
  // -1 is SWF's "unknown" sentinel; any other negative value is garbage.
  if ((runtime < 0.0 && runtime != -1.0) ||
      (submit < 0.0 && submit != -1.0) || (wait < 0.0 && wait != -1.0) ||
      (procs_raw < 0.0 && procs_raw != -1.0)) {
    malformed("negative SWF value that is not the -1 unknown sentinel");
    return std::nullopt;
  }
  if (procs_raw > 1e9) {
    malformed("SWF processor count '" + toks[4] + "' out of range");
    return std::nullopt;
  }
  const int procs = static_cast<int>(procs_raw);

  if (opts.skip_invalid && (runtime <= 0.0 || procs <= 0 || submit < 0.0)) {
    if (opts.diagnostics != nullptr) ++opts.diagnostics->invalid_jobs;
    return std::nullopt;
  }
  Job job;
  job.submit = submit;
  job.start = submit + std::max(0.0, wait);
  job.runtime = runtime;
  job.procs = procs;
  return job;
}

}  // namespace

Log read_swf(std::istream& in, const std::string& name,
             const SwfReadOptions& opts) {
  Log log;
  log.name = name;
  int header_cpus = 0;
  double max_end = 0.0;
  int max_alloc = 0;

  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::optional<Job> job = parse_swf_line(line, lineno, name, opts, header_cpus);
    if (!job) continue;
    log.jobs.push_back(*job);
    max_end = std::max(max_end, job->end());
    max_alloc = std::max(max_alloc, job->procs);
  }

  log.cpus = opts.cpus_override > 0  ? opts.cpus_override
             : header_cpus > 0       ? header_cpus
                                     : std::max(1, max_alloc);
  log.duration = max_end;
  std::sort(log.jobs.begin(), log.jobs.end(),
            [](const Job& a, const Job& b) { return a.submit < b.submit; });
  log.index_ends();
  return log;
}

SwfStreamReader::SwfStreamReader(std::istream& in, std::string name,
                                 const SwfReadOptions& opts,
                                 int reorder_window)
    : in_(in),
      name_(std::move(name)),
      opts_(opts),
      reorder_window_(std::max(0, reorder_window)) {
  // Prime the buffer so header_cpus() is meaningful before the first
  // next(): SWF headers precede all data lines.
  refill();
}

void SwfStreamReader::refill() {
  std::string line;
  while (!exhausted_ &&
         static_cast<long long>(buffer_.size()) <= reorder_window_) {
    if (!std::getline(in_, line)) {
      exhausted_ = true;
      break;
    }
    ++lineno_;
    std::optional<Job> job =
        parse_swf_line(line, lineno_, name_, opts_, header_cpus_);
    if (!job) continue;
    max_alloc_ = std::max(max_alloc_, job->procs);
    buffer_.push(Pending{*job, next_seq_++});
  }
}

std::optional<Job> SwfStreamReader::next() {
  for (;;) {
    refill();
    if (buffer_.empty()) return std::nullopt;
    Job job = buffer_.top().job;
    buffer_.pop();
    if (emitted_ > 0 && job.submit < last_submit_) {
      // The job surfaced after a later-submitted one already left the
      // buffer: its displacement exceeds the reorder window. Mirror the
      // malformed-line contract rather than emitting out of order.
      const std::string what =
          "SWF job at submit " + std::to_string(job.submit) +
          " out of order beyond the reorder window (last emitted " +
          std::to_string(last_submit_) + ")";
      if (opts_.strict) throw Error(what + " in " + name_);
      if (opts_.diagnostics != nullptr) {
        SwfDiagnostics& d = *opts_.diagnostics;
        ++d.malformed_lines;
        if (static_cast<int>(d.messages.size()) < SwfDiagnostics::kMaxMessages)
          d.messages.push_back(what + " in " + name_);
      }
      continue;
    }
    last_submit_ = job.submit;
    ++emitted_;
    return job;
  }
}

int SwfStreamReader::header_cpus() const {
  return opts_.cpus_override > 0  ? opts_.cpus_override
         : header_cpus_ > 0       ? header_cpus_
                                  : std::max(1, max_alloc_);
}

Log read_swf_file(const std::string& path, const SwfReadOptions& opts) {
  std::ifstream in(path);
  RESCHED_CHECK(in.good(), "cannot open SWF file: " + path);
  return read_swf(in, path, opts);
}

void write_swf(std::ostream& out, const Log& log) {
  out << "; SWF written by resched\n";
  out << "; MaxProcs: " << log.cpus << "\n";
  // Times are seconds as doubles; default stream precision (6 significant
  // digits) would truncate multi-month timestamps.
  out.precision(15);
  int id = 1;
  for (const Job& j : log.jobs) {
    out << id++ << ' ' << j.submit << ' ' << j.wait() << ' ' << j.runtime
        << ' ' << j.procs << " -1 -1 " << j.procs
        << " -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  }
}

}  // namespace resched::workload
