/**
 * @file
 * Discrete-event serving loop implementation.
 *
 * Event ordering: the calendar pops by (time, sequence). The sequence
 * tiebreak makes simultaneous events process in creation order, which
 * keeps runs deterministic across standard-library heap
 * implementations. The calendar keeps the sources that are already
 * in order, or hold one event each, out of its heap: the time-sorted
 * fault schedule is read through a cursor (its sequence numbers are
 * reserved at seed time, as if every fault had been pushed then), an
 * open-loop source's one pending arrival waits in a slot, and each
 * dispatch target has one slot for its head batch's completion and
 * one for its pending stage-free. The heap holds the rest: timeouts,
 * detections, quarantines, retries and closed-loop arrivals.
 *
 * Timeout events are advisory: a fired timeout only launches a batch
 * if the chip is idle and the queue's own `launchable` test agrees.
 * Stale timeouts (the queue already launched, or grew to a full
 * batch) are no-ops, so the loop never needs to cancel events. A
 * target arms at most one Timeout per deadline: it remembers the
 * deadline of its newest armed Timeout (deadlines never decrease on
 * one target) and pushes no second one at that instant. Such a
 * duplicate would pop at the same instant as the original, so its
 * clock advance would be a no-op, and every handler that changes a
 * target's queue or busy flag already ends in try_launch, so its
 * launch attempt would repeat one already made.
 *
 * Every dispatch target is one group of G = R·K chips timed by a
 * GroupTimingModel, and every event kind has one body driven by that
 * timing and the lane→chip map. A target keeps a FIFO of in-flight
 * batches; a lone die or a replica group holds at most one, a
 * pipeline streams several back to back.
 *
 * A target's batches complete in FIFO order, so only the head's Done
 * can be next: the Done slot holds the head's (doneSec, doneSeq) and
 * the StageFree slot the pending lane-0 free. Every change to either
 * re-keys its slot in place (a launch into an empty FIFO, a
 * completion, a link glitch that stretches the FIFO, a kill or
 * checkpoint restart, a cleared stage-free). A completion or
 * stage-free that is scheduled or moves draws a fresh sequence
 * number, as a newly pushed event would, so simultaneous events keep
 * their creation order, and no superseded completion or stage-free
 * is ever left to pop. Detect carries the corruption wave it was
 * armed for and kills only that wave's batches still in flight (a
 * no-op once they completed).
 *
 * With an empty fault schedule no fault event is created, no
 * service time is scaled, and the event sequence — hence every
 * metric — is byte-identical to the pre-fault simulator.
 */

#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>

#include "common/logging.hh"
#include "perf/profile.hh"

namespace supernpu {
namespace serving {

void
ServingConfig::check() const
{
    arrival.check();
    batching.check();
    if (chips < 1)
        fatal("serving needs at least one chip");
    if (requests < 1)
        fatal("serving needs at least one request");
    if (pipelineStages < 1)
        fatal("pipelineStages must be at least 1, got ",
              pipelineStages);
    if (chips % pipelineStages != 0) {
        fatal("pipelined serving needs chips divisible by the stage "
              "count: ", chips, " chips, ", pipelineStages,
              " stages");
    }
    if (dataParallelReplicas < 1)
        fatal("dataParallelReplicas must be at least 1, got ",
              dataParallelReplicas);
    if (dataParallelReplicas > 1 && pipelineStages > 1) {
        fatal("data-parallel replica groups cannot be combined with "
              "pipelined placement in serving (no hybrid placement "
              "model); pick one of --dp and --stages");
    }
    if (chips % (pipelineStages * dataParallelReplicas) != 0) {
        fatal("replicated serving needs chips divisible by the "
              "replica count: ", chips, " chips, ",
              dataParallelReplicas, " replicas");
    }
    link.check();
    resilience.check();
    if (pipelineStages > 1 && resilience.checkpointRestart) {
        fatal("checkpoint-restart resilience is not supported with "
              "pipelined placement (no per-stage checkpoint model); "
              "use retry or degraded-dispatch recovery");
    }
    if (dataParallelReplicas > 1 && resilience.checkpointRestart) {
        fatal("checkpoint-restart resilience is not supported with "
              "data-parallel replica groups (no distributed "
              "checkpoint model); use retry or degraded-dispatch "
              "recovery");
    }
    if (!faults.empty() && faults.config().chips != chips)
        fatal("fault schedule covers ", faults.config().chips,
              " chips but the serving config has ", chips);
}

namespace {

/** Event kinds of the calendar. */
enum class EventKind : std::uint8_t
{
    Arrival,   ///< one request enters the system
    Timeout,   ///< a target's batch-timeout deadline passed
    Done,      ///< a target finished one in-flight batch
    Fault,     ///< a scheduled hardware fault strikes
    Detect,    ///< corruption detection latency elapsed
    Quarantine,///< a permanently-faulted target is taken out
    Retry,     ///< a killed request's backoff expired
    StageFree, ///< a pipelined target's lane 0 can accept a batch
};

/** One scheduled event. */
struct Event
{
    double timeSec;
    std::uint64_t seq; ///< creation order, the determinism tiebreak
    /**
     * Fault: index into the fault schedule. Detect: the corruption
     * wave it was armed for. Retry: the slot of its parked request.
     * Unused otherwise.
     */
    std::uint64_t tag;
    /** Dispatch target; Fault: the struck physical chip. */
    int chip;
    EventKind kind;
};
static_assert(sizeof(Event) == 32, "heap events should stay 32 bytes");

/** Sentinel: no event pending. */
constexpr std::uint64_t kNoSeq =
    std::numeric_limits<std::uint64_t>::max();

/** The calendar's (time, seq) order. */
bool
earlier(double a_sec, std::uint64_t a_seq, double b_sec,
        std::uint64_t b_seq)
{
    if (a_sec != b_sec)
        return a_sec < b_sec;
    return a_seq < b_seq;
}

/** Min-heap ordering on (time, seq). */
struct EventAfter
{
    bool operator()(const Event &a, const Event &b) const
    {
        return earlier(b.timeSec, b.seq, a.timeSec, a.seq);
    }
};

/**
 * The event calendar: one (time, seq) order over four parts.
 *
 *  - a cursor over the fault schedule, which is already sorted by
 *    time; fault i carries sequence number faultSeq0 + i, reserved
 *    when the schedule is attached;
 *  - a slot for the one pending arrival of an open-loop source;
 *  - two slots per dispatch target, its head batch's Done and its
 *    pending StageFree, under a winner tree that keeps the earliest
 *    slot at its root;
 *  - a binary heap of every other event.
 *
 * Every event takes its sequence number when it is scheduled, so the
 * pop order is the one a single heap over all of them would give.
 * A target slot mirrors its target's state: the loop re-keys it
 * whenever that state changes, and popping it leaves it as it was.
 */
class Calendar
{
  public:
    Calendar(std::size_t heap_capacity, int targets)
    {
        std::vector<Event> backing;
        backing.reserve(heap_capacity);
        _heap = Heap(EventAfter{}, std::move(backing));
        _leaves = 1;
        while (_leaves < 2 * (std::size_t)targets)
            _leaves *= 2;
        _slotSec.assign(_leaves, std::numeric_limits<double>::infinity());
        _slotSeq.assign(_leaves, kNoSeq);
        // Node n's winner; leaf i is node _leaves + i. Every slot
        // starts empty, so each node's leftmost slot wins it.
        _winner.resize(2 * _leaves);
        for (std::size_t i = 0; i < _leaves; ++i)
            _winner[_leaves + i] = (std::uint32_t)i;
        for (std::size_t node = _leaves - 1; node >= 1; --node)
            _winner[node] = _winner[2 * node];
    }

    /** Schedule a heap event; returns its sequence number. */
    std::uint64_t push(double time_sec, EventKind kind, int chip,
                       std::uint64_t tag = 0)
    {
        _heap.push(Event{time_sec, _nextSeq, tag, chip, kind});
        return _nextSeq++;
    }

    /** Draw the sequence number of an event bound for a target slot. */
    std::uint64_t reserveSeq() { return _nextSeq++; }

    /**
     * Key target's Done (or StageFree) slot at (time_sec, seq), or
     * empty it with seq == kNoSeq.
     */
    void keySlot(int target, EventKind kind, double time_sec,
                 std::uint64_t seq)
    {
        SUPERNPU_ASSERT(kind == EventKind::Done ||
                            kind == EventKind::StageFree,
                        "only Done and StageFree have target slots");
        const std::size_t slot =
            2 * (std::size_t)target + (kind == EventKind::StageFree);
        _slotSec[slot] = seq == kNoSeq
                             ? std::numeric_limits<double>::infinity()
                             : time_sec;
        _slotSeq[slot] = seq;
        for (std::size_t node = (_leaves + slot) / 2; node >= 1;
             node /= 2) {
            const std::uint32_t left = _winner[2 * node];
            const std::uint32_t right = _winner[2 * node + 1];
            _winner[node] = earlier(_slotSec[right], _slotSeq[right],
                                    _slotSec[left], _slotSeq[left])
                                ? right
                                : left;
        }
    }

    /** Schedule the open-loop source's next arrival (none pending). */
    void pushArrival(double time_sec)
    {
        SUPERNPU_ASSERT(_arrivalSeq == kNoSeq,
                        "open-loop source already has an arrival pending");
        _arrivalSec = time_sec;
        _arrivalSeq = _nextSeq++;
    }

    /** Stream a time-sorted fault schedule; reserves its seqs. */
    void attachFaults(const reliability::FaultSchedule::EventView &faults)
    {
        _faults = faults;
        _faultSeq0 = _nextSeq;
        _nextSeq += (std::uint64_t)faults.size();
    }

    bool empty() const
    {
        return _heap.empty() && _arrivalSeq == kNoSeq &&
               _faultNext == _faults.size() &&
               _slotSeq[_winner[1]] == kNoSeq;
    }

    /** Remove and return the earliest event; the calendar is nonempty. */
    Event pop()
    {
        // An empty part compares as (+inf, kNoSeq), after any event.
        enum class Part { Heap, Slot, Fault, Arrival } part = Part::Heap;
        double sec = std::numeric_limits<double>::infinity();
        std::uint64_t seq = kNoSeq;
        if (!_heap.empty()) {
            sec = _heap.top().timeSec;
            seq = _heap.top().seq;
        }
        const std::uint32_t slot = _winner[1];
        if (earlier(_slotSec[slot], _slotSeq[slot], sec, seq)) {
            part = Part::Slot;
            sec = _slotSec[slot];
            seq = _slotSeq[slot];
        }
        if (_faultNext < _faults.size()) {
            const double fault_sec = _faults.timeSec(_faultNext);
            const std::uint64_t fault_seq = _faultSeq0 + _faultNext;
            if (earlier(fault_sec, fault_seq, sec, seq)) {
                part = Part::Fault;
                sec = fault_sec;
                seq = fault_seq;
            }
        }
        if (_arrivalSeq != kNoSeq &&
            earlier(_arrivalSec, _arrivalSeq, sec, seq))
            part = Part::Arrival;

        switch (part) {
          case Part::Slot:
            return Event{_slotSec[slot], _slotSeq[slot], 0,
                         (int)(slot / 2),
                         slot % 2 ? EventKind::StageFree
                                  : EventKind::Done};
          case Part::Fault: {
            const Event event{_faults.timeSec(_faultNext),
                              _faultSeq0 + _faultNext,
                              (std::uint64_t)_faultNext,
                              _faults.chip(_faultNext), EventKind::Fault};
            ++_faultNext;
            return event;
          }
          case Part::Arrival: {
            const Event event{_arrivalSec, _arrivalSeq, 0, -1,
                              EventKind::Arrival};
            _arrivalSeq = kNoSeq;
            return event;
          }
          case Part::Heap:
            break;
        }
        SUPERNPU_ASSERT(!_heap.empty(), "pop from an empty calendar");
        const Event event = _heap.top();
        _heap.pop();
        return event;
    }

  private:
    using Heap =
        std::priority_queue<Event, std::vector<Event>, EventAfter>;

    Heap _heap;
    std::uint64_t _nextSeq = 0;

    double _arrivalSec = 0.0;
    std::uint64_t _arrivalSeq = kNoSeq; ///< kNoSeq: no arrival pending

    reliability::FaultSchedule::EventView _faults;
    std::size_t _faultNext = 0;     ///< cursor into _faults
    std::uint64_t _faultSeq0 = 0;   ///< seq of _faults[0]

    // Target slots 2t (Done) and 2t + 1 (StageFree), padded to a
    // power of two with empty slots; an empty slot is (+inf, kNoSeq).
    std::size_t _leaves = 0;
    std::vector<double> _slotSec;
    std::vector<std::uint64_t> _slotSeq;
    std::vector<std::uint32_t> _winner; ///< node -> earliest slot below
};

/** One batch in flight on a dispatch target. */
struct Batch
{
    std::vector<Request> requests;
    double launchSec = 0.0;
    double serviceSec = 0.0; ///< derated launch-to-completion work
    double doneSec = 0.0;
    std::uint64_t doneSeq = 0; ///< sequence number of its Done
    /** Corruption wave that hit the batch; 0 while it is clean. */
    std::uint64_t wave = 0;
    double corruptedAtSec = 0.0;
    /**
     * Link-glitch stall ridden so far, and as of the corruption.
     * Stalls stretch doneSec but are NOT service work: checkpoints
     * cover computed progress only, so the restart math must never
     * treat glitch delay as checkpointable.
     */
    double glitchSec = 0.0;
    double glitchAtCorruptSec = 0.0;
    /**
     * Per lane, the absolute window the lane's chips spend on this
     * batch: its compute, plus any glitch stall that struck the lane
     * inside the window (the stall pauses the lane, so the window
     * stays contiguous).
     */
    std::vector<double> laneStartSec;
    std::vector<double> laneEndSec;
};

/**
 * One dispatch target: a group of G = R·K chips (a lone die when
 * G == 1) sharing one batch queue.
 */
struct Target
{
    Target(const BatchingConfig &batching, int lanes)
        : queue(batching), stallUntilSec((std::size_t)lanes, 0.0)
    {
    }

    BatchQueue queue;
    /** Batches in flight, FIFO-ordered by completion. */
    std::deque<Batch> inFlight;
    /** Requests across inFlight, kept on launch, completion and kill. */
    int inFlightRequests = 0;
    bool busy = false;            ///< lane 0 holds a batch
    double freeSec = 0.0;         ///< when lane 0 frees
    std::uint64_t pendingFreeSeq = kNoSeq; ///< pending StageFree
    /** Deadline of the newest armed Timeout; -inf before the first. */
    double armedTimeoutSec = -std::numeric_limits<double>::infinity();
    double lastDoneSec = 0.0;     ///< FIFO floor for completions
    /**
     * Per lane: when a glitch stall that struck the lane outside
     * every in-flight window stops occupying it. The stall stays
     * charged while the group still has batches to ship; a kill that
     * empties the group gives the unexpired remainder back.
     */
    std::vector<double> stallUntilSec;

    // --- fault state (inert without a fault schedule) ---------------
    double permDerate = 1.0; ///< flux-trap service multiplier
    double skewUntilSec = 0.0; ///< clock-skew window end
    double skewFactor = 1.0;   ///< service multiplier in the window

    int outstanding() const
    {
        return (int)queue.depth() + inFlightRequests;
    }
};

} // namespace

ServingSimulator::ServingSimulator(const BatchServiceModel &service,
                                   const ServingConfig &config)
    : _service(service), _cfg(config)
{
    _cfg.check();
}

ServingReport
ServingSimulator::run()
{
    perf::Scope perf_scope("serving.run");
    // Every dispatch target is a group of G = R·K chips: K stage
    // lanes of R replica chips each, lane l owning the group's chips
    // l·R .. l·R + R-1. G == 1 keeps n_targets == chips.
    const int K = _cfg.pipelineStages;
    const int R = _cfg.dataParallelReplicas;
    const int G = K * R;
    const int n_targets = _cfg.chips / G;

    // Completions and stage-frees live in the calendar's two slots
    // per target, faults behind its cursor and the open-loop arrival
    // in its own slot, so none of them enters the heap. The heap's
    // backing store is sized up front for the rest: a few timeouts
    // per target (one pending per deadline, plus any a launch made
    // moot), the closed-loop clients' arrivals, and the detections,
    // quarantines and retries in flight. A burst of retries can
    // outgrow it, and the vector then grows as usual.
    Calendar calendar((std::size_t)_cfg.chips * 4 +
                          (std::size_t)_cfg.arrival.clients + 64,
                      n_targets);
    // A Retry event parks its request in a reused slot and carries
    // the slot index as its tag, which keeps Event small.
    std::vector<Request> retry_slots;
    std::vector<std::uint64_t> free_retry_slots;
    const auto schedule_retry = [&](double time,
                                    const Request &request) {
        std::uint64_t slot = retry_slots.size();
        if (free_retry_slots.empty()) {
            retry_slots.push_back(request);
        } else {
            slot = free_retry_slots.back();
            free_retry_slots.pop_back();
            retry_slots[(std::size_t)slot] = request;
        }
        calendar.push(time, EventKind::Retry, -1, slot);
    };

    const GroupTimingModel group(_service, K, R, _cfg.link);

    ArrivalProcess arrivals(_cfg.arrival, _cfg.seed);
    Dispatcher dispatcher(_cfg.dispatch, n_targets);
    MetricsCollector metrics(_cfg.chips);
    const ResilienceConfig &res = _cfg.resilience;

    std::vector<Target> targets(n_targets, Target(_cfg.batching, K));
    std::uint64_t injected = 0;  ///< arrival events created
    std::uint64_t arrived = 0;   ///< requests that entered a queue
    std::uint64_t completed = 0;
    std::uint64_t events_processed = 0; ///< calendar pops
    double clock = 0.0;

    std::uint64_t waves = 0; ///< corruption waves so far
    std::uint64_t faults_seen = 0;
    std::uint64_t batches_killed = 0;
    std::uint64_t requests_killed = 0;
    std::uint64_t retries_total = 0;
    std::uint64_t retry_give_ups = 0;
    std::uint64_t restarts = 0;
    std::uint64_t redispatches = 0;
    std::uint64_t glitches_absorbed = 0;
    std::uint64_t failed_requests = 0;

    // Total queued (not-yet-launched) requests across every target,
    // maintained incrementally at each queue push and pop. The
    // metrics collector samples it on every calendar pop, which made
    // re-summing it there an O(targets) cost on the hottest line.
    std::size_t queued_depth = 0;

    // Steady state recycles batch records instead of allocating per
    // launch: finished ones park here with their capacity intact.
    std::vector<Batch> spare_batches;
    const auto take_batch = [&]() {
        if (spare_batches.empty())
            return Batch();
        Batch batch = std::move(spare_batches.back());
        spare_batches.pop_back();
        return batch;
    };
    const auto recycle_batch = [&](Batch &&batch) {
        batch.requests.clear();
        spare_batches.push_back(std::move(batch));
    };

    // Launch-time derates apply in one order: the flux-trap derate,
    // then the clock-skew window's.
    const auto derate = [&](const Target &target, double seconds) {
        seconds *= target.permDerate;
        if (clock < target.skewUntilSec)
            seconds *= target.skewFactor;
        return seconds;
    };

    // Adjust the recorded busy time of every chip in one lane.
    const auto charge_lane = [&](int index, int lane, double seconds) {
        const int first = index * G + lane * R;
        for (int chip = first; chip < first + R; ++chip)
            metrics.extendBusy(chip, seconds);
    };

    // A request leaves the system: record it, count it, and let a
    // closed-loop client think and re-ask.
    const auto complete_request = [&](const Request &request,
                                      bool failed) {
        metrics.recordLatency(clock - request.arrivalSec);
        ++completed;
        if (failed)
            ++failed_requests;
        if (!arrivals.openLoop() && injected < _cfg.requests) {
            calendar.push(clock + arrivals.thinkGapSec(),
                          EventKind::Arrival, -1);
            ++injected;
        }
    };

    // A killed batch's requests back off and re-enter, or give up
    // past their retry/deadline budget.
    const auto kill_requests = [&](std::vector<Request> &requests) {
        for (Request request : requests) {
            ++requests_killed;
            ++request.retries;
            const bool over_retries =
                request.retries > res.maxRetries;
            const bool over_deadline =
                res.retryDeadlineSec > 0 &&
                clock - request.arrivalSec >= res.retryDeadlineSec;
            if (over_retries || over_deadline) {
                ++retry_give_ups;
                complete_request(request, true);
                continue;
            }
            double backoff = res.backoffBaseSec;
            for (int i = 1; i < request.retries; ++i)
                backoff *= res.backoffMultiplier;
            ++retries_total;
            schedule_retry(clock + backoff, request);
        }
    };

    // Dispatch target for a new or re-enqueued request. JSQ reads
    // each target's outstanding count (queued + in flight,
    // Target::outstanding()), kept in the dispatcher where it
    // changes: a queue push, a completion, a kill and a quarantine
    // flush. A launch moves requests from the queue into flight and
    // leaves it alone.
    const auto pick_target = [&]() {
        // With every target quarantined the run cannot go on
        // without silently serving from known-bad hardware.
        if (dispatcher.healthyTargets() == 0) {
            fatal("all ", n_targets, " dispatch target(s) of ", G,
                  " chip(s) quarantined: no healthy dispatch target "
                  "remains (permanent faults exceeded the cluster's "
                  "redundancy)");
        }
        return dispatcher.pick();
    };

    // A target's calendar slots mirror its head batch's completion
    // and its pending StageFree: re-key them after every change to
    // either.
    const auto key_done = [&](int index) {
        const Target &target = targets[index];
        if (target.inFlight.empty()) {
            calendar.keySlot(index, EventKind::Done, 0.0, kNoSeq);
            return;
        }
        const Batch &head = target.inFlight.front();
        calendar.keySlot(index, EventKind::Done, head.doneSec,
                         head.doneSeq);
    };
    const auto key_free = [&](int index) {
        const Target &target = targets[index];
        calendar.keySlot(index, EventKind::StageFree, target.freeSec,
                         target.pendingFreeSeq);
    };

    // Put a batch in service: it holds lane 0 for the (derated)
    // initiation interval, occupies each lane for its window, and
    // completes one latency after launch — FIFO behind its
    // predecessor's drain. Only a pipelined group, whose interval
    // undercuts its latency, frees lane 0 before completion.
    std::vector<double> lane_busy((std::size_t)K);
    const auto launch_batch = [&](int index, Batch batch) {
        Target &target = targets[index];
        const int size = (int)batch.requests.size();
        const GroupTimingModel::Timing &timing = group.timing(size);
        batch.launchSec = clock;
        batch.serviceSec = derate(target, timing.latencySec);
        batch.doneSec =
            std::max(clock + batch.serviceSec, target.lastDoneSec);
        batch.wave = 0;
        batch.glitchSec = 0.0;
        batch.glitchAtCorruptSec = 0.0;
        batch.laneStartSec.resize((std::size_t)K);
        batch.laneEndSec.resize((std::size_t)K);
        for (std::size_t lane = 0; lane < (std::size_t)K; ++lane) {
            lane_busy[lane] = derate(target, timing.stageBusySec[lane]);
            batch.laneStartSec[lane] =
                clock + derate(target, timing.stageStartSec[lane]);
            batch.laneEndSec[lane] =
                batch.laneStartSec[lane] + lane_busy[lane];
        }
        target.lastDoneSec = batch.doneSec;
        target.inFlightRequests += size;
        metrics.recordGroupBatch(index * G, size, lane_busy, R);
        batch.doneSeq = calendar.reserveSeq();
        target.busy = true;
        if (timing.intervalSec < timing.latencySec) {
            target.freeSec = clock + derate(target, timing.intervalSec);
            target.pendingFreeSeq = calendar.reserveSeq();
            key_free(index);
        }
        target.inFlight.push_back(std::move(batch));
        if (target.inFlight.size() == 1)
            key_done(index);
    };

    // Launch a batch on an idle target when its queue allows;
    // otherwise arm the queue's next timeout deadline, unless a
    // Timeout at that deadline is already pending (an armed deadline
    // at or before the clock has popped, and cannot equal one past
    // it).
    const auto try_launch = [&](int index) {
        Target &target = targets[index];
        if (target.busy || !target.queue.launchable(clock)) {
            const double deadline = target.queue.nextDeadlineSec();
            if (!target.busy && deadline > clock &&
                deadline < std::numeric_limits<double>::infinity() &&
                deadline != target.armedTimeoutSec) {
                calendar.push(deadline, EventKind::Timeout, index);
                target.armedTimeoutSec = deadline;
            }
            return;
        }
        Batch batch = take_batch();
        target.queue.popInto(batch.requests);
        queued_depth -= batch.requests.size();
        launch_batch(index, std::move(batch));
    };

    // Queue a new or re-entering request on the picked target.
    const auto dispatch = [&](const Request &request) {
        const int index = pick_target();
        targets[index].queue.push(request);
        ++queued_depth;
        dispatcher.add(index, 1);
        try_launch(index);
    };

    // Seed the calendar: open-loop sources self-schedule; closed-loop
    // clients all fire their first request at t = 0.
    if (arrivals.openLoop()) {
        calendar.pushArrival(arrivals.nextGapSec());
        ++injected;
    } else {
        const std::uint64_t first = std::min<std::uint64_t>(
            (std::uint64_t)_cfg.arrival.clients, _cfg.requests);
        for (std::uint64_t i = 0; i < first; ++i)
            calendar.push(0.0, EventKind::Arrival, -1);
        injected = first;
    }

    // The fault schedule streams from its cursor. Empty
    // schedule: no sequence number reserved, numbering untouched.
    calendar.attachFaults(_cfg.faults.events());

    while (completed < _cfg.requests) {
        if (calendar.empty()) {
            // Only reachable when the fixed-batch policy stranded
            // partial batches after the last injection: flush them.
            bool flushed = false;
            for (int i = 0; i < n_targets; ++i) {
                if (!targets[i].busy && !targets[i].queue.empty()) {
                    Batch batch = take_batch();
                    targets[i].queue.popInto(batch.requests);
                    queued_depth -= batch.requests.size();
                    launch_batch(i, std::move(batch));
                    flushed = true;
                }
            }
            SUPERNPU_ASSERT(flushed,
                            "serving deadlock: no events, no work");
            continue;
        }

        const Event event = calendar.pop();
        ++events_processed;
        if (perf::enabled()) {
            static perf::Counter &perf_events =
                perf::counter("serving.events");
            perf_events.add(1);
        }
        metrics.advanceTo(event.timeSec, queued_depth);
        clock = event.timeSec;

        switch (event.kind) {
          case EventKind::Arrival: {
            dispatch(Request{arrived++, clock, clock});
            if (arrivals.openLoop() && injected < _cfg.requests) {
                calendar.pushArrival(clock + arrivals.nextGapSec());
                ++injected;
            }
            break;
          }
          case EventKind::Timeout:
            try_launch(event.chip);
            break;
          case EventKind::Done: {
            Target &target = targets[event.chip];
            SUPERNPU_ASSERT(!target.inFlight.empty() &&
                                target.inFlight.front().doneSeq ==
                                    event.seq,
                            "a Done slot fell out of step with its "
                            "target's head batch");
            Batch &batch = target.inFlight.front();
            // Corruption that outran its detection (or was never
            // detected under the no-recovery policy) ships garbage:
            // the requests complete, and count as failed.
            const bool failed = batch.wave != 0;
            for (const Request &request : batch.requests)
                complete_request(request, failed);
            target.inFlightRequests -= (int)batch.requests.size();
            dispatcher.add(event.chip, -(int)batch.requests.size());
            recycle_batch(std::move(batch));
            target.inFlight.pop_front();
            key_done(event.chip);
            // Without a pending StageFree, the batch held lane 0
            // until completion.
            if (target.pendingFreeSeq == kNoSeq)
                target.busy = false;
            try_launch(event.chip);
            break;
          }
          case EventKind::Fault: {
            const reliability::FaultEvent fault =
                _cfg.faults.events()[(std::size_t)event.tag];
            // Fault events strike physical chips: the struck chip
            // is one member of group event.chip / G, and a fault on
            // any lane or replica degrades the whole group.
            const int index = event.chip / G;
            Target &target = targets[index];
            ++faults_seen;
            const bool detects =
                res.recovery != RecoveryPolicy::None;
            // A pulse drop or flux trap corrupts every clean batch
            // in flight in the group — each is mid-stream through
            // the struck group — as one wave, and arms its Detect.
            const auto corrupt_in_flight = [&]() {
                const std::uint64_t wave = ++waves;
                bool newly = false;
                for (Batch &batch : target.inFlight) {
                    if (batch.wave != 0)
                        continue;
                    batch.wave = wave;
                    batch.corruptedAtSec = clock;
                    batch.glitchAtCorruptSec = batch.glitchSec;
                    newly = true;
                }
                if (newly && detects) {
                    calendar.push(clock + res.detectLatencySec,
                                  EventKind::Detect, index, wave);
                }
            };
            switch (fault.kind) {
              case reliability::FaultKind::PulseDrop:
                corrupt_in_flight();
                break;
              case reliability::FaultKind::FluxTrap:
                // The trap corrupts in-flight work like a drop...
                corrupt_in_flight();
                // ...and permanently derates the remapped array —
                // the derated chip throttles the whole group, so the
                // loss covers all G chips.
                target.permDerate *= fault.magnitude;
                if (dispatcher.healthy(index)) {
                    for (int c = index * G; c < (index + 1) * G; ++c) {
                        metrics.setPermanentLoss(
                            c, clock, 1.0 - 1.0 / target.permDerate);
                    }
                }
                if (res.recovery == RecoveryPolicy::DegradedDispatch &&
                    dispatcher.healthy(index)) {
                    calendar.push(clock + res.detectLatencySec,
                                  EventKind::Quarantine, index);
                }
                break;
              case reliability::FaultKind::ClockSkew:
                target.skewUntilSec = clock + fault.durationSec;
                target.skewFactor = fault.magnitude;
                // A skewed clock slows every launch of the group
                // for the window: all G chips lose capacity.
                for (int c = index * G; c < (index + 1) * G; ++c) {
                    metrics.addTransientLoss(
                        c, fault.durationSec *
                               (1.0 - 1.0 / fault.magnitude));
                }
                break;
              case reliability::FaultKind::LinkGlitch: {
                if (target.inFlight.empty())
                    break;
                // The stalled link pauses the group's stream: every
                // in-flight batch completes, and lane 0 frees, the
                // stall later. The stall occupies the struck chip's
                // lane: it stretches the window of a batch mid-way
                // through that lane, and every lane window not yet
                // begun slips behind it. The stall is not computed
                // work, so serviceSec stays pure for checkpoint
                // restarts; the transient capacity loss is the
                // struck chip's alone.
                const double stall = fault.magnitude;
                const int lane = (event.chip - index * G) / R;
                bool absorbed = false;
                for (Batch &batch : target.inFlight) {
                    batch.doneSec += stall;
                    batch.glitchSec += stall;
                    batch.doneSeq = calendar.reserveSeq();
                    for (int l = 0; l < K; ++l) {
                        double &start = batch.laneStartSec[(std::size_t)l];
                        double &end = batch.laneEndSec[(std::size_t)l];
                        if (l == lane && !absorbed && start <= clock &&
                            clock <= end) {
                            end += stall;
                            absorbed = true;
                        } else if (start >= clock) {
                            start += stall;
                            end += stall;
                        }
                    }
                }
                key_done(index);
                target.lastDoneSec += stall;
                if (target.pendingFreeSeq != kNoSeq) {
                    target.freeSec += stall;
                    target.pendingFreeSeq = calendar.reserveSeq();
                    key_free(index);
                }
                // Stalls between windows serialize on their lane: a
                // second glitch during a pending one extends it.
                if (!absorbed) {
                    double &until = target.stallUntilSec[(std::size_t)lane];
                    until = std::max(until, clock) + stall;
                }
                charge_lane(index, lane, stall);
                metrics.addTransientLoss(event.chip, stall);
                ++glitches_absorbed;
                break;
              }
            }
            break;
          }
          case EventKind::Detect: {
            const int index = event.chip;
            Target &target = targets[index];
            // Kill — or restart from a checkpoint — every batch of
            // this corruption wave still in flight. A wave that
            // already drained leaves a stale no-op.
            const bool tail_live = !target.inFlight.empty() &&
                                   target.inFlight.back().wave != event.tag;
            bool hit = false;
            for (auto batch = target.inFlight.begin();
                 batch != target.inFlight.end();) {
                if (batch->wave != event.tag) {
                    ++batch;
                    continue;
                }
                hit = true;
                ++batches_killed;
                // Give back what each lane had yet to spend on the
                // batch: compute and absorbed stall past the clock.
                for (int l = 0; l < K; ++l) {
                    const double unspent = std::max(
                        batch->laneEndSec[(std::size_t)l] -
                            std::max(clock,
                                     batch->laneStartSec[(std::size_t)l]),
                        0.0);
                    charge_lane(index, l, -unspent);
                }
                if (res.checkpointRestart) {
                    // Resume from the last checkpoint before
                    // corruption, on the same (lone) chip. Progress
                    // counts computed work only: any glitch stall
                    // that elapsed before the corruption stretched
                    // the wall clock without producing checkpointable
                    // results.
                    const double interval = res.checkpointIntervalSec;
                    const double progress = std::max(
                        0.0, batch->corruptedAtSec - batch->launchSec -
                                 batch->glitchAtCorruptSec);
                    const double preserved =
                        std::floor(progress / interval) * interval;
                    const double remaining =
                        batch->serviceSec - preserved;
                    batch->wave = 0;
                    batch->glitchSec = 0.0;
                    batch->glitchAtCorruptSec = 0.0;
                    ++restarts;
                    batch->launchSec = clock - preserved;
                    batch->doneSec = clock + remaining;
                    batch->laneStartSec[0] = clock;
                    batch->laneEndSec[0] = batch->doneSec;
                    target.lastDoneSec = batch->doneSec;
                    charge_lane(index, 0, remaining);
                    batch->doneSeq = calendar.reserveSeq();
                    ++batch;
                    continue;
                }
                // Kill the batch; requests back off and re-enter,
                // or give up past their retry/deadline budget.
                target.inFlightRequests -= (int)batch->requests.size();
                dispatcher.add(index, -(int)batch->requests.size());
                kill_requests(batch->requests);
                recycle_batch(std::move(*batch));
                batch = target.inFlight.erase(batch);
            }
            if (hit)
                key_done(index);
            if (!hit || res.checkpointRestart)
                break;
            target.lastDoneSec = target.inFlight.empty()
                                     ? 0.0
                                     : target.inFlight.back().doneSec;
            // With nothing left to ship, a stall pending between
            // windows no longer occupies its lane: give the busy
            // time back. The transient availability loss stays — the
            // glitch did happen.
            if (target.inFlight.empty()) {
                for (int l = 0; l < K; ++l) {
                    double &until = target.stallUntilSec[(std::size_t)l];
                    if (until > clock)
                        charge_lane(index, l, -(until - clock));
                    until = 0.0;
                }
            }
            // If the newest launch died, lane 0 is free now: its
            // pending StageFree is cancelled.
            if (!tail_live && target.busy) {
                target.busy = false;
                target.pendingFreeSeq = kNoSeq;
                key_free(index);
            }
            try_launch(index);
            break;
          }
          case EventKind::Quarantine: {
            Target &target = targets[event.chip];
            if (!dispatcher.healthy(event.chip))
                break;
            dispatcher.quarantine(event.chip);
            // A quarantined group takes all G of its chips out.
            for (int c = event.chip * G; c < (event.chip + 1) * G;
                 ++c) {
                metrics.setPermanentLoss(c, clock, 1.0);
            }
            // Its queued work moves to healthy targets.
            std::vector<Request> moved;
            while (!target.queue.empty()) {
                std::vector<Request> chunk = target.queue.flush();
                queued_depth -= chunk.size();
                moved.insert(moved.end(), chunk.begin(), chunk.end());
            }
            dispatcher.add(event.chip, -(int)moved.size());
            for (Request request : moved) {
                request.enqueueSec = clock;
                dispatch(request);
                ++redispatches;
            }
            break;
          }
          case EventKind::Retry: {
            Request request = retry_slots[(std::size_t)event.tag];
            free_retry_slots.push_back(event.tag);
            request.enqueueSec = clock;
            dispatch(request);
            break;
          }
          case EventKind::StageFree: {
            Target &target = targets[event.chip];
            SUPERNPU_ASSERT(event.seq == target.pendingFreeSeq,
                            "a StageFree slot fell out of step with "
                            "its target");
            target.pendingFreeSeq = kNoSeq;
            key_free(event.chip);
            target.busy = false;
            try_launch(event.chip);
            break;
          }
        }
    }

    SUPERNPU_ASSERT(arrived == _cfg.requests &&
                        completed == _cfg.requests,
                    "serving run lost requests");
    SUPERNPU_ASSERT(queued_depth == 0,
                    "serving run ended with queued requests");
    // The dispatcher's running JSQ counts must drain with the work,
    // and the kept counts must agree with the targets'.
    for (int i = 0; i < n_targets; ++i) {
        const Target &target = targets[i];
        SUPERNPU_ASSERT(target.inFlightRequests == 0 &&
                            target.inFlight.empty(),
                        "serving run ended with batches in flight");
        SUPERNPU_ASSERT(dispatcher.outstanding(i) == target.outstanding(),
                        "kept JSQ count drifted from its target");
    }

    ServingReport report = metrics.finish(clock);
    report.network = _service.network().name;
    report.configName = _service.estimate().config.name;
    report.chips = _cfg.chips;
    report.arrival = arrivalKindName(_cfg.arrival.kind);
    report.policy = batchPolicyName(_cfg.batching.policy);
    report.dispatch = dispatchPolicyName(_cfg.dispatch);
    report.maxBatch = _cfg.batching.maxBatch;
    report.pipelineStages = K;
    report.pipelineGroups = n_targets;
    report.dataParallelReplicas = R;
    report.replicaGroups = n_targets;
    report.generated = arrived;
    report.eventsProcessed = events_processed;
    report.offeredRps = arrivals.openLoop()
                            ? _cfg.arrival.ratePerSec
                            : report.throughputRps;

    report.resilienceActive = !_cfg.faults.empty();
    report.recovery = recoveryPolicyName(res.recovery);
    report.faultsScheduled = (std::uint64_t)_cfg.faults.size();
    report.faultsInjected = faults_seen;
    report.batchesKilled = batches_killed;
    report.requestsKilled = requests_killed;
    report.retriesTotal = retries_total;
    report.retryGiveUps = retry_give_ups;
    report.restarts = restarts;
    report.redispatches = redispatches;
    report.glitchesAbsorbed = glitches_absorbed;
    report.failedRequests = failed_requests;
    if (report.makespanSec > 0.0) {
        report.goodputRps =
            (double)(completed - failed_requests) / report.makespanSec;
    }
    return report;
}

} // namespace serving
} // namespace supernpu
