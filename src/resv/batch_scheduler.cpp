#include "src/resv/batch_scheduler.hpp"

#include "src/util/error.hpp"

namespace resched::resv {

double BatchScheduler::probe(int procs, double duration,
                             double earliest) const {
  ++probes_;
  auto fit = calendar_.earliest_fit(procs, duration, earliest);
  RESCHED_CHECK(fit.has_value(),
                "probe exceeds platform capacity; bound procs by capacity()");
  return *fit;
}

}  // namespace resched::resv
