/**
 * @file
 * Thread-safe, single-flight memo: the one result cache behind
 * npusim::SimCache, partition::LayerTimingCache and the per-batch
 * timings of partition::PipelineServiceModel.
 *
 * getOrCompute(key, compute) returns the stored value for `key`, or
 * runs compute() on the calling thread and stores its result. The
 * contract every user relies on:
 *
 *  - compute runs with no lock held, so misses on different keys
 *    proceed in parallel.
 *  - Concurrent misses on the SAME key collapse into one flight: the
 *    first arrival (the leader) computes and counts a miss; later
 *    arrivals block until the result lands and share it. A waiter
 *    counts as a hit — exactly what the serial run counts when it
 *    reaches the same lookup after the leader's insert — so hit,
 *    miss and eviction totals are identical at any ThreadPool job
 *    count. Parallel planner and check sweeps embed these counters in
 *    byte-compared ledgers, which makes that determinism
 *    load-bearing, and the dedup also stops a sweep from burning
 *    cores on N identical computations of one hot key.
 *  - If compute throws, the exception reaches the leader and every
 *    joined waiter, nothing is stored, and the next call on the key
 *    is a fresh miss.
 *  - compute must be deterministic for the key and must not re-enter
 *    the memo for the same key (it may compute through the memo for
 *    other keys; the in-flight wait is per key, never global).
 *
 * With a nonzero capacity, entries are evicted least-recently-used
 * past it. Values are handed out as shared_ptr<const Value>, so a
 * value stays valid while a caller holds it even after eviction.
 */

#ifndef SUPERNPU_COMMON_MEMO_HH
#define SUPERNPU_COMMON_MEMO_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "perf/profile.hh"

namespace supernpu {

/** Monotonically-counted memo statistics. */
struct MemoStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/** Single-flight, optionally LRU-bounded memo of Key -> Value. */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class Memo
{
  public:
    /**
     * @param capacity LRU bound on resident entries; 0 = unbounded.
     * @param counter_prefix When non-empty, hits and misses also feed
     *        the perf counters "<prefix>.hits" and "<prefix>.misses".
     */
    explicit Memo(std::size_t capacity = 0,
                  const std::string &counter_prefix = "")
        : _capacity(capacity)
    {
        if (!counter_prefix.empty()) {
            _hitCounter = &perf::counter(counter_prefix + ".hits");
            _missCounter = &perf::counter(counter_prefix + ".misses");
        }
    }

    /** The value for `key`, computing it on this thread if absent. */
    template <typename Compute>
    std::shared_ptr<const Value> getOrCompute(const Key &key,
                                              Compute &&compute)
    {
        std::shared_ptr<Flight> flight;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            const auto it = _index.find(key);
            if (it != _index.end()) {
                countLocked(true);
                _lru.splice(_lru.begin(), _lru, it->second);
                return it->second->second;
            }
            const auto in = _inflight.find(key);
            if (in != _inflight.end()) {
                countLocked(true);
                flight = in->second;
                _flightDone.wait(lock, [&] { return flight->done; });
                if (flight->error)
                    std::rethrow_exception(flight->error);
                return flight->value;
            }
            countLocked(false);
            flight = std::make_shared<Flight>();
            _inflight.emplace(key, flight);
        }
        try {
            auto value = std::make_shared<const Value>(compute());
            std::lock_guard<std::mutex> lock(_mutex);
            _lru.emplace_front(key, value);
            _index.emplace(key, _lru.begin());
            while (_capacity != 0 && _lru.size() > _capacity) {
                _index.erase(_lru.back().first);
                _lru.pop_back();
                ++_stats.evictions;
            }
            flight->value = std::move(value);
            flight->done = true;
            _inflight.erase(key);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(_mutex);
                flight->error = std::current_exception();
                flight->done = true;
                _inflight.erase(key);
            }
            _flightDone.notify_all();
            throw;
        }
        _flightDone.notify_all();
        return flight->value;
    }

    /** Entries currently resident. */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _lru.size();
    }

    /** Hit/miss/eviction counters since construction or clear(). */
    MemoStats stats() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _stats;
    }

    /** Drop every resident entry and reset the counters. */
    void clear()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _lru.clear();
        _index.clear();
        _stats = MemoStats{};
    }

  private:
    /** One in-progress computation other threads can wait on. */
    struct Flight
    {
        std::shared_ptr<const Value> value;
        std::exception_ptr error;
        bool done = false; ///< under _mutex
    };
    using Lru = std::list<std::pair<Key, std::shared_ptr<const Value>>>;

    void countLocked(bool hit)
    {
        ++(hit ? _stats.hits : _stats.misses);
        perf::Counter *counter = hit ? _hitCounter : _missCounter;
        if (counter)
            counter->add(1);
    }

    mutable std::mutex _mutex;
    std::condition_variable _flightDone; ///< any flight completed
    Lru _lru; ///< front = most recently used
    std::unordered_map<Key, typename Lru::iterator, Hash> _index;
    std::unordered_map<Key, std::shared_ptr<Flight>, Hash> _inflight;
    std::size_t _capacity;
    MemoStats _stats;
    perf::Counter *_hitCounter = nullptr;
    perf::Counter *_missCounter = nullptr;
};

} // namespace supernpu

#endif // SUPERNPU_COMMON_MEMO_HH
