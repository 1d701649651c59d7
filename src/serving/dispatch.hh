/**
 * @file
 * Multi-NPU request dispatcher for scale-out serving: several SFQ
 * NPU dies share one cryostat (see examples/scaleout_study.cpp), and
 * a front end spreads incoming requests across them.
 *
 *  - round-robin: stateless rotation, oblivious to queue state;
 *  - join-shortest-queue: send each request to the target with the
 *    fewest outstanding requests (queued + in flight), the classic
 *    latency-optimal heuristic when service times are uniform
 *    across targets.
 */

#ifndef SUPERNPU_SERVING_DISPATCH_HH
#define SUPERNPU_SERVING_DISPATCH_HH

#include <vector>

namespace supernpu {
namespace serving {

/** Request-to-chip placement discipline. */
enum class DispatchPolicy
{
    RoundRobin,
    JoinShortestQueue,
};

/** Stable lowercase name of a dispatch policy. */
const char *dispatchPolicyName(DispatchPolicy policy);

/**
 * Picks a dispatch target for each incoming request. The dispatcher
 * keeps each target's outstanding request count (queued + in flight)
 * and its health: the caller reports every change through add() and
 * quarantine(), and pick() reads them.
 */
class Dispatcher
{
  public:
    Dispatcher(DispatchPolicy policy, int targets);

    /** Change a target's outstanding count by `delta` requests. */
    void add(int target, int delta)
    {
        _outstanding[(std::size_t)target] += delta;
    }
    /** A target's outstanding count as kept through add(). */
    int outstanding(int target) const
    {
        return _outstanding[(std::size_t)target];
    }

    /** Take a target out of dispatch for good. */
    void quarantine(int target);
    bool healthy(int target) const
    {
        return _healthy[(std::size_t)target] != 0;
    }
    /** Targets not quarantined. */
    int healthyTargets() const { return _targets - _quarantined; }

    /**
     * Choose a healthy target for the next request; at least one must
     * remain. Round-robin rotates to the next healthy target. JSQ
     * takes the healthy target with the fewest outstanding requests,
     * ties to the lowest index.
     */
    int pick()
    {
        if (_quarantined != 0)
            return pickHealthy();
        if (_policy == DispatchPolicy::RoundRobin) {
            const int target = _next;
            _next = (_next + 1) % _targets;
            return target;
        }
        const int *counts = _outstanding.data();
        int best = 0;
        int fewest = counts[0];
        for (int target = 1; target < _targets; ++target) {
            if (counts[target] < fewest) {
                best = target;
                fewest = counts[target];
            }
        }
        return best;
    }

    DispatchPolicy policy() const { return _policy; }

  private:
    /** pick() once some target is quarantined. */
    int pickHealthy();

    DispatchPolicy _policy;
    int _targets;
    int _next = 0; ///< round-robin cursor
    int _quarantined = 0;
    std::vector<int> _outstanding;
    std::vector<char> _healthy;
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_DISPATCH_HH
