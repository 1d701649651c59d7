/**
 * @file
 * Batch queue implementation.
 */

#include "batcher.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace supernpu {
namespace serving {

const char *
batchPolicyName(BatchPolicy policy)
{
    switch (policy) {
      case BatchPolicy::DynamicTimeout:
        return "dynamic";
      case BatchPolicy::FixedBatch:
        return "fixed";
    }
    panic("bad batch policy");
}

void
BatchingConfig::check() const
{
    if (maxBatch < 1)
        fatal("maxBatch must be at least 1");
    if (policy == BatchPolicy::DynamicTimeout && timeoutSec < 0.0)
        fatal("batch timeout cannot be negative");
}

namespace {

/** Consumed requests a queue keeps before it may compact. */
constexpr std::size_t kCompactAfter = 1024;

} // namespace

BatchQueue::BatchQueue(const BatchingConfig &config) : _cfg(config)
{
    _cfg.check();
}

void
BatchQueue::push(const Request &request)
{
    SUPERNPU_ASSERT(empty() ||
                        request.enqueueSec >= _queue.back().enqueueSec,
                    "requests must enqueue in time order");
    _queue.push_back(request);
}

bool
BatchQueue::launchable(double now_sec) const
{
    if (depth() >= (std::size_t)_cfg.maxBatch)
        return true;
    if (_cfg.policy != BatchPolicy::DynamicTimeout || empty())
        return false;
    return now_sec >= nextDeadlineSec();
}

double
BatchQueue::nextDeadlineSec() const
{
    if (_cfg.policy != BatchPolicy::DynamicTimeout || empty())
        return std::numeric_limits<double>::infinity();
    return _queue[_head].enqueueSec + _cfg.timeoutSec;
}

std::vector<Request>
BatchQueue::pop()
{
    std::vector<Request> batch;
    popInto(batch);
    return batch;
}

void
BatchQueue::popInto(std::vector<Request> &out)
{
    const std::size_t take =
        std::min(depth(), (std::size_t)_cfg.maxBatch);
    const auto first = _queue.begin() + (std::ptrdiff_t)_head;
    out.assign(first, first + (std::ptrdiff_t)take);
    _head += take;
    // Drop the consumed prefix when nothing is left behind it, or
    // once it is both large and at least as long as the live tail,
    // so compaction moves each request O(1) times amortized.
    if (_head == _queue.size()) {
        _queue.clear();
        _head = 0;
    } else if (_head >= kCompactAfter && _head >= depth()) {
        _queue.erase(_queue.begin(), _queue.begin() + (std::ptrdiff_t)_head);
        _head = 0;
    }
}

} // namespace serving
} // namespace supernpu
