/**
 * @file
 * Check driver implementation.
 */

#include "runner.hh"

#include <cstdint>
#include <sstream>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "generator.hh"
#include "perf/profile.hh"
#include "repro.hh"
#include "shrinker.hh"

namespace supernpu {
namespace check {

namespace {

/**
 * Whether this oracle runs on this case index. The serving oracles
 * simulate hundreds of requests each, so they sample the stream
 * instead of running on every case; an explicit --oracle overrides
 * the sampling.
 */
bool
scheduled(const std::string &oracle, std::uint64_t index)
{
    if (oracle == "serving-bounds")
        return index % 4 == 0;
    if (oracle == "serving-determinism")
        return index % 8 == 0;
    return true;
}

/** expected-vs-observed judgement of one oracle run. */
bool
asExpected(Cook cook, const OracleOutcome &outcome)
{
    if (!outcome.applicable)
        return true;
    return cook == Cook::None ? outcome.passed : !outcome.passed;
}

std::string
reproPath(const RunnerOptions &options, const std::string &oracle,
          const CheckCase &c)
{
    std::ostringstream path;
    path << options.reproDir << "/check-" << oracle << "-s" << c.seed
         << "-i" << c.index << ".json";
    return path.str();
}

/** Shrink (when asked) and persist one failing case. */
void
persistFailure(const RunnerOptions &options, const std::string &oracle,
               const CheckCase &failing,
               const sfq::CellLibrary &library)
{
    Repro repro;
    repro.oracle = oracle;
    repro.cook = options.cook;
    repro.checkCase = failing;
    if (options.shrinkFailures && options.cook == Cook::None) {
        const ShrinkResult shrunk =
            shrinkCase(failing, oracle, library, options.cook);
        inform("check: shrunk ", failing.describe(), " -> ",
               shrunk.shrunk.describe(), " (", shrunk.accepted,
               " moves, ", shrunk.attempts, " evaluations)");
        repro.checkCase = shrunk.shrunk;
    }
    const std::string path = reproPath(options, oracle,
                                       repro.checkCase);
    if (writeRepro(repro, path)) {
        inform("check: wrote repro ", path);
    } else {
        warn("check: cannot write repro ", path);
    }
}

int
replay(const RunnerOptions &options, const sfq::CellLibrary &library)
{
    std::string error;
    const auto repro = loadRepro(options.replayPath, &error);
    if (!repro.has_value()) {
        warn("check: bad repro ", options.replayPath, ": ", error);
        return 1;
    }
    const OracleOutcome outcome = runOracle(
        repro->oracle, repro->checkCase, library, repro->cook);
    if (!outcome.applicable) {
        warn("check: repro ", options.replayPath,
             " is not applicable to its oracle '", repro->oracle,
             "' — stale corpus entry");
        return 1;
    }
    if (!asExpected(repro->cook, outcome)) {
        if (repro->cook == Cook::None) {
            warn("check: repro ", options.replayPath, " FAILS '",
                 repro->oracle, "': ", outcome.detail);
        } else {
            warn("check: repro ", options.replayPath, ": oracle '",
                 repro->oracle,
                 "' PASSED a tampered observation — it has lost its "
                 "teeth");
        }
        return 1;
    }
    inform("check: replay ", options.replayPath, " ok (",
           repro->oracle, ", cook=", cookName(repro->cook), ")");
    return 0;
}

int
emitCorpus(const RunnerOptions &options,
           const sfq::CellLibrary &library)
{
    int missing = 0;
    for (const std::string &oracle : oracleNames()) {
        bool emitted = false;
        // Scan the seeded stream for the first case on which the
        // tampered oracle (correctly) fails, then shrink that.
        for (std::uint64_t index = 0;
             index < options.cases && !emitted; ++index) {
            const CheckCase c = generate(options.seed, index);
            const OracleOutcome outcome =
                runOracle(oracle, c, library, Cook::Tamper);
            if (!outcome.applicable || outcome.passed)
                continue;
            const ShrinkResult shrunk =
                shrinkCase(c, oracle, library, Cook::Tamper);
            Repro repro;
            repro.oracle = oracle;
            repro.cook = Cook::Tamper;
            repro.checkCase = shrunk.shrunk;
            const std::string path =
                options.emitCorpusDir + "/" + oracle + "-tamper.json";
            if (!writeRepro(repro, path)) {
                warn("check: cannot write ", path);
                return 1;
            }
            inform("check: corpus ", path, " (case i", c.index,
                   " shrunk by ", shrunk.accepted, " moves)");
            emitted = true;
        }
        if (!emitted) {
            warn("check: no applicable tamper case for '", oracle,
                 "' in ", options.cases, " cases");
            ++missing;
        }
    }
    return missing == 0 ? 0 : 1;
}

} // namespace

CheckSummary
runCases(const RunnerOptions &options, const sfq::CellLibrary &library,
         const FailureSink &on_failure)
{
    if (!options.oracle.empty() && !isOracle(options.oracle))
        fatal("unknown oracle '", options.oracle,
              "'; see `supernpu check --help`");

    std::vector<std::string> catalog;
    if (options.oracle.empty()) {
        catalog = oracleNames();
    } else {
        catalog.push_back(options.oracle);
    }

    // One case's generated spec plus every judged oracle outcome.
    // Cases are embarrassingly parallel: generate(seed, index) is a
    // pure function of its arguments and every runOracle builds its
    // own SimCache, so a task touches nothing another task reads.
    struct CaseResult
    {
        CheckCase c;
        std::vector<OracleOutcome> outcomes; ///< parallel to catalog
        std::vector<std::uint8_t> judged;    ///< 0: sampled out
    };

    ThreadPool pool(options.jobs < 0 ? 1 : options.jobs);
    const std::vector<CaseResult> results = pool.parallelMap(
        (std::size_t)options.cases, [&](std::size_t index) {
            perf::Scope case_scope("check.case");
            if (perf::enabled()) {
                static perf::Counter &cases =
                    perf::counter("check.cases");
                cases.add(1);
            }
            CaseResult result;
            result.c = generate(options.seed, (std::uint64_t)index);
            result.outcomes.resize(catalog.size());
            result.judged.assign(catalog.size(), 0);
            for (std::size_t o = 0; o < catalog.size(); ++o) {
                if (options.oracle.empty() &&
                    !scheduled(catalog[o], (std::uint64_t)index))
                    continue;
                perf::Scope oracle_scope("check.oracle");
                if (perf::enabled()) {
                    static perf::Counter &oracles =
                        perf::counter("check.oracles");
                    oracles.add(1);
                }
                result.outcomes[o] = runOracle(
                    catalog[o], result.c, library, options.cook);
                result.judged[o] = 1;
            }
            return result;
        });

    // Judge serially in case order: tallies, the outcome
    // fingerprint, and the failure sink's side effects (warns,
    // shrinks, repro files) land in exactly the order the serial
    // sweep produces, no matter how the tasks interleaved above.
    CheckSummary summary;
    Fnv1a hash;
    for (std::size_t index = 0; index < results.size(); ++index) {
        const CaseResult &result = results[index];
        for (std::size_t o = 0; o < catalog.size(); ++o) {
            if (!result.judged[o]) {
                ++summary.skipped;
                continue;
            }
            const OracleOutcome &outcome = result.outcomes[o];
            if (!outcome.applicable) {
                ++summary.skipped;
                continue;
            }
            ++summary.ran;
            hash.word((std::uint64_t)index);
            hash.text(catalog[o]);
            hash.word((std::uint64_t)outcome.passed);
            hash.text(outcome.detail);
            if (asExpected(options.cook, outcome))
                continue;
            ++summary.failures;
            if (on_failure)
                on_failure(catalog[o], result.c, outcome);
        }
    }
    summary.outcomeHash = hash.value();
    return summary;
}

int
runCheck(const RunnerOptions &options, const sfq::CellLibrary &library)
{
    if (!options.replayPath.empty())
        return replay(options, library);
    if (!options.emitCorpusDir.empty())
        return emitCorpus(options, library);

    const CheckSummary summary = runCases(
        options, library,
        [&](const std::string &oracle, const CheckCase &c,
            const OracleOutcome &outcome) {
            if (options.cook == Cook::None) {
                warn("check: '", oracle, "' FAILED on ",
                     c.describe(), ": ", outcome.detail);
                persistFailure(options, oracle, c, library);
            } else {
                warn("check: '", oracle,
                     "' passed a tampered observation on ",
                     c.describe(), " — it has lost its teeth");
            }
        });
    inform("check: seed ", options.seed, ": ", summary.ran,
           " oracle runs over ", options.cases, " cases (",
           summary.skipped, " skipped), ", summary.failures,
           " failure", summary.failures == 1 ? "" : "s");
    return summary.failures == 0 ? 0 : 1;
}

} // namespace check
} // namespace supernpu
