#include "src/io/calendar_format.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "src/util/error.hpp"

namespace resched::io {

namespace {
[[noreturn]] void calendar_error(const std::string& source, int line,
                                 const std::string& what) {
  std::ostringstream os;
  os << source << ":" << line << ": " << what;
  throw Error(os.str());
}
}  // namespace

resv::AvailabilityProfile read_calendar(std::istream& in,
                                        const std::string& source) {
  // Reservations are collected and built into the profile in one sorted
  // pass once the file is read; every line is validated as it is parsed.
  std::optional<int> capacity;
  resv::ReservationList reservations;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) continue;

    if (directive == "capacity") {
      int procs = 0;
      if (!(fields >> procs) || procs < 1)
        calendar_error(source, lineno, "expected: capacity <processors>");
      if (capacity)
        calendar_error(source, lineno, "duplicate capacity directive");
      capacity = procs;
    } else if (directive == "resv") {
      if (!capacity)
        calendar_error(source, lineno, "capacity must precede reservations");
      double start = 0.0, end = 0.0;
      int procs = 0;
      if (!(fields >> start >> end >> procs) || end <= start || procs < 1)
        calendar_error(source, lineno,
                       "expected: resv <start> <end> <procs> with start < "
                       "end and procs >= 1");
      reservations.push_back({start, end, procs});
    } else {
      calendar_error(source, lineno,
                     "unknown directive '" + directive + "'");
    }
  }
  if (!capacity) calendar_error(source, lineno, "missing capacity directive");
  return resv::AvailabilityProfile(*capacity, reservations);
}

resv::AvailabilityProfile read_calendar_file(const std::string& path) {
  std::ifstream in(path);
  RESCHED_CHECK(in.good(), "cannot open calendar file: " + path);
  return read_calendar(in, path);
}

void write_calendar(std::ostream& out, int capacity,
                    const resv::ReservationList& reservations) {
  out.precision(17);
  out << "capacity " << capacity << "\n";
  for (const auto& r : reservations)
    out << "resv " << r.start << ' ' << r.end << ' ' << r.procs << "\n";
}

}  // namespace resched::io
