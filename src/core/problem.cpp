#include "core/problem.hpp"

namespace easched::core {

common::Status Problem::validate() const {
  if (deadline <= 0.0) return common::Status::invalid("deadline must be positive");
  if (auto st = dag.validate(); !st.is_ok()) return st;
  return mapping.validate(dag);
}

common::Status Problem::check(const sched::Schedule& schedule) const {
  sched::ValidationInput in;
  in.speed_model = &speeds;
  in.reliability = reliability ? &*reliability : nullptr;
  in.deadline = deadline;
  in.allow_re_execution = reliability.has_value();
  return sched::validate_schedule(dag, mapping, schedule, in);
}

}  // namespace easched::core
