/**
 * @file
 * Dispatcher implementation.
 */

#include "dispatch.hh"

#include "common/logging.hh"

namespace supernpu {
namespace serving {

const char *
dispatchPolicyName(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        return "rr";
      case DispatchPolicy::JoinShortestQueue:
        return "jsq";
    }
    panic("bad dispatch policy");
}

Dispatcher::Dispatcher(DispatchPolicy policy, int targets)
    : _policy(policy), _targets(targets)
{
    if (targets < 1)
        fatal("dispatcher needs at least one target");
    _outstanding.assign((std::size_t)targets, 0);
    _healthy.assign((std::size_t)targets, 1);
}

void
Dispatcher::quarantine(int target)
{
    SUPERNPU_ASSERT(target >= 0 && target < _targets,
                    "bad dispatch target");
    if (_healthy[(std::size_t)target]) {
        _healthy[(std::size_t)target] = 0;
        ++_quarantined;
    }
}

int
Dispatcher::pickHealthy()
{
    SUPERNPU_ASSERT(_quarantined < _targets, "no healthy dispatch target");
    if (_policy == DispatchPolicy::RoundRobin) {
        for (int step = 0;; ++step) {
            const int target = (_next + step) % _targets;
            if (_healthy[(std::size_t)target]) {
                _next = (target + 1) % _targets;
                return target;
            }
        }
    }
    int best = -1;
    for (int target = 0; target < _targets; ++target) {
        if (!_healthy[(std::size_t)target])
            continue;
        if (best < 0 || _outstanding[(std::size_t)target] <
                            _outstanding[(std::size_t)best])
            best = target;
    }
    return best;
}

} // namespace serving
} // namespace supernpu
