// FIFO-queued devices for the analytic timing model.
//
// The client in the paper is sequential — a page fault blocks the
// application — but devices keep state between requests: the disk arm is
// where the last transfer left it, the NIC may still be draining an
// asynchronous parity flush. Resource captures exactly that: each request
// begins at max(request time, busy-until) and occupies the device for its
// service time.

#ifndef SRC_SIM_RESOURCE_H_
#define SRC_SIM_RESOURCE_H_

#include <cstdint>

#include "src/util/running_stats.h"
#include "src/util/units.h"

namespace rmp {

class Resource {
 public:
  explicit Resource(const char* name) : name_(name) {}

  // Serves a request issued at `start` taking `service` device time.
  // Returns the completion time. Queueing delay is (begin - start).
  TimeNs Serve(TimeNs start, DurationNs service);

  // Completion time of the most recent request (device idle after this).
  TimeNs busy_until() const { return busy_until_; }

  const char* name() const { return name_; }

  // Total device-busy time accumulated, for utilization reporting.
  DurationNs busy_time() const { return busy_time_; }
  int64_t requests() const { return requests_; }
  const RunningStats& queue_delay_stats() const { return queue_delay_; }

  void Reset();

 private:
  const char* name_;
  TimeNs busy_until_ = 0;
  DurationNs busy_time_ = 0;
  int64_t requests_ = 0;
  RunningStats queue_delay_;
};

}  // namespace rmp

#endif  // SRC_SIM_RESOURCE_H_
