/**
 * @file
 * Dynamic batching queue for the inference-serving simulator.
 *
 * The SFQ NPU amortizes its preparation cycles over the batch
 * (Table II), so a serving front end wants batches as large as the
 * on-chip buffers allow — but waiting for a full batch inflates
 * latency at low load. Two policies capture that trade:
 *
 *  - batch-up-to-max-with-timeout: launch as soon as `maxBatch`
 *    requests are queued, or when the oldest queued request has
 *    waited `timeoutSec`, whichever comes first (partial batches
 *    flush on timeout);
 *  - fixed-batch: launch only exact `maxBatch`-sized batches (the
 *    paper's evaluation discipline); leftovers launch only at drain.
 *
 * `maxBatch` is normally the Table II solver result for the served
 * network (npusim::maxBatch), so no launched batch ever spills the
 * on-chip working set.
 */

#ifndef SUPERNPU_SERVING_BATCHER_HH
#define SUPERNPU_SERVING_BATCHER_HH

#include <cstdint>
#include <vector>

namespace supernpu {
namespace serving {

/** One inference request in flight through the serving system. */
struct Request
{
    std::uint64_t id = 0;
    double arrivalSec = 0.0; ///< when it entered the system
    /**
     * When it entered its current batch queue. Fresh arrivals have
     * enqueueSec == arrivalSec; a retry or a quarantine redispatch
     * re-enqueues later. Queue ordering and the batching timeout run
     * on enqueueSec; latency is always measured from arrivalSec.
     */
    double enqueueSec = 0.0;
    /**
     * Times this request has been re-enqueued after a fault killed
     * its batch (resilience.hh); latency is always measured from the
     * original arrivalSec, so retries lengthen the recorded tail.
     */
    int retries = 0;
};

/** Batch-formation discipline. */
enum class BatchPolicy
{
    DynamicTimeout, ///< up-to-max, partial batches flush on timeout
    FixedBatch,     ///< exact max-sized batches only
};

/** Stable lowercase name of a batching policy. */
const char *batchPolicyName(BatchPolicy policy);

/** Parameters of the batch former. */
struct BatchingConfig
{
    BatchPolicy policy = BatchPolicy::DynamicTimeout;
    int maxBatch = 1;         ///< ceiling on any launched batch
    double timeoutSec = 2e-4; ///< oldest-request wait bound (dynamic)

    /** Panics when malformed. */
    void check() const;
};

/**
 * FIFO of pending requests with batch-launch decisions. The requests
 * live in one vector read from a head index: a pop advances the
 * head, and the consumed prefix is dropped once the queue empties or
 * the prefix outgrows what is still queued.
 */
class BatchQueue
{
  public:
    explicit BatchQueue(const BatchingConfig &config);

    /** Enqueue one request (its arrivalSec is its enqueue time). */
    void push(const Request &request);

    bool empty() const { return _head == _queue.size(); }
    std::size_t depth() const { return _queue.size() - _head; }

    /** A batch may launch now under the configured policy. */
    bool launchable(double now_sec) const;

    /**
     * Absolute time the policy will next force a launch with the
     * queue as it stands (the oldest request's timeout expiry);
     * +infinity when empty or under the fixed policy.
     */
    double nextDeadlineSec() const;

    /** Dequeue the next batch: the oldest min(depth, maxBatch). */
    std::vector<Request> pop();

    /**
     * pop() into a caller-recycled buffer: `out` is cleared (keeping
     * its capacity) and filled with the same batch pop() would
     * return. The simulator's launch path recycles batch buffers
     * through this so steady state stops allocating per batch.
     */
    void popInto(std::vector<Request> &out);

    /**
     * Dequeue everything, still in maxBatch-sized chunks' worth of
     * one call — used by the simulator's drain phase to flush
     * requests the fixed policy would otherwise strand. Never
     * returns more than maxBatch; call until empty.
     */
    std::vector<Request> flush() { return pop(); }

    const BatchingConfig &config() const { return _cfg; }

  private:
    BatchingConfig _cfg;
    std::vector<Request> _queue; ///< queued requests from _head on
    std::size_t _head = 0;
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_BATCHER_HH
