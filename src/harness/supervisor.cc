#include "harness/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <type_traits>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"
#include "system/cmp_system.hh"

namespace cmpmem
{

namespace
{

// ---------------------------------------------------------------- //
// JobResult codec                                                  //
//                                                                  //
// The codec carries the *raw* RunStats members, not the rendered   //
// StatSet: bench text tables read raw fields (perCore breakdowns,  //
// miss counters), and the digest is recomputed from the restored   //
// struct — so a lossy codec would be caught, not papered over.     //
// Both directions iterate the same field lists (system/            //
// cmp_system.hh, energy/energy_model.hh), so a counter listed      //
// there is carried here.                                           //
// ---------------------------------------------------------------- //

/**
 * Restore each listed member. A missing member, or a counter outside
 * uint64_t's range (whose cast would be undefined), is a Config error.
 */
template <typename S, typename T, std::size_t N>
void
fieldsFromJson(const JsonValue &obj, S &s, const Field<S, T> (&fields)[N])
{
    for (const auto &f : fields) {
        const double v = obj.at(f.name).asNumber();
        if constexpr (std::is_integral_v<T>) {
            if (!(v >= 0 && v < 0x1p64))
                throwSimError(SimErrorKind::Config,
                              "member \"%s\" is not a counter: %.17g",
                              f.name, v);
        }
        s.*f.member = T(v);
    }
}

std::string
jsonStringOr(const JsonValue &doc, const char *key, const char *dflt)
{
    const JsonValue *v = doc.find(key);
    return v ? v->asString() : std::string(dflt);
}

// ---------------------------------------------------------------- //
// Pipe protocol                                                    //
//                                                                  //
// Length-prefixed frames: "<kind> <payload-bytes>\n<payload>".     //
// 'L' frames stream captured log lines as the job produces them;   //
// one final 'R' frame carries the serialized JobResult. A child    //
// killed mid-frame leaves a prefix the parser simply never         //
// completes — the partial frame is dropped, everything before it   //
// survives.                                                        //
// ---------------------------------------------------------------- //

bool
writeAll(int fd, const char *p, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false; // parent gone (EPIPE) or pipe broken
        }
        p += w;
        n -= std::size_t(w);
    }
    return true;
}

void
writeFrame(int fd, char kind, const std::string &payload)
{
    std::string buf;
    buf += kind;
    buf += ' ';
    buf += std::to_string(payload.size());
    buf += '\n';
    buf += payload;
    (void)writeAll(fd, buf.data(), buf.size());
}

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGKILL: return "SIGKILL";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGILL: return "SIGILL";
      case SIGFPE: return "SIGFPE";
      case SIGTERM: return "SIGTERM";
      case SIGINT: return "SIGINT";
    }
    return strformat("signal %d", sig);
}

/** Child body after fork: run the job, stream log + result, _exit. */
[[noreturn]] void
childRun(const SweepJob &job, int fd)
{
    // The pipe is the only channel back; a vanished parent must not
    // kill us with SIGPIPE mid-write (writeAll already stops on the
    // resulting EPIPE).
    std::signal(SIGPIPE, SIG_IGN);
    JobResult jr = runJobInProcess(job, [fd](const std::string &line) {
        writeFrame(fd, 'L', line);
    });
    writeFrame(fd, 'R', jobResultToJson(jr, false).dumpCompact());
    ::close(fd);
    // _exit, not exit: the forked image shares atexit handlers and
    // static destructors with the parent; running them here would
    // corrupt shared artifacts (flushed stdio, temp files).
    ::_exit(0);
}

using WallClock = std::chrono::steady_clock;

/** One live child running one attempt of one job. */
struct Sandbox
{
    std::size_t job = 0; ///< index into the job list
    int attempt = 1;
    pid_t pid = -1;
    int fd = -1; ///< read end of the child's pipe
    WallClock::time_point deadline;
    bool killed = false; ///< SIGKILLed at its deadline
    std::string buf;     ///< bytes of a frame still in flight
    std::string log;
    std::string resultJson;
    bool sawResult = false;

    /** Append @p n piped bytes and take every complete frame. */
    void
    consume(const char *data, std::size_t n)
    {
        buf.append(data, n);
        for (;;) {
            const std::size_t nl = buf.find('\n');
            if (nl == std::string::npos || nl < 3 || buf[1] != ' ')
                return; // no header yet, or a malformed one
            char *end = nullptr;
            const unsigned long long len =
                std::strtoull(buf.c_str() + 2, &end, 10);
            if (!end || *end != '\n' || buf.size() < nl + 1 + len)
                return; // malformed, or payload still in flight
            std::string payload = buf.substr(nl + 1, len);
            if (buf[0] == 'L') {
                log += payload;
            } else if (buf[0] == 'R') {
                resultJson = std::move(payload);
                sawResult = true;
            }
            buf.erase(0, nl + 1 + len);
        }
    }
};

/**
 * Fork a child that runs @p job and writes to a fresh pipe; the
 * parent keeps the read end in @p sb. The child also closes the read
 * ends of the @p live sandboxes it inherited. False (with a warning)
 * when pipe() or fork() fails.
 */
bool
spawn(const SweepJob &job, const SweepOptions &opts,
      const std::vector<Sandbox> &live, Sandbox &sb)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        warn("sweep job '%s': pipe() failed (%s); running in-process",
             job.id.c_str(), std::strerror(errno));
        return false;
    }
    // Unflushed stdio would otherwise be written twice, once per
    // process.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        warn("sweep job '%s': fork() failed (%s); running in-process",
             job.id.c_str(), std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        ::close(fds[0]);
        for (const Sandbox &other : live)
            ::close(other.fd);
        childRun(job, fds[1]); // does not return
    }
    ::close(fds[1]);
    sb.pid = pid;
    sb.fd = fds[0];
    sb.deadline =
        WallClock::now() + std::chrono::duration_cast<WallClock::duration>(
                               std::chrono::duration<double>(
                                   opts.jobDeadlineSeconds));
    return true;
}

/** The outcome of a reaped sandbox whose child exited with @p status. */
JobResult
classify(const SweepJob &job, const Sandbox &sb, int status,
         const SweepOptions &opts)
{
    JobResult jr;
    jr.job = job;
    jr.log = sb.log;

    if (sb.sawResult) {
        // A result that raced a deadline kill still counts: the job
        // finished its work and reported before the SIGKILL landed.
        try {
            jobResultFromJson(JsonValue::parse(sb.resultJson), jr);
            // The codec intentionally omits the config (the artifact
            // renders job.cfg); restore it for table code reading
            // stats.config off the merged result.
            jr.run.stats.config = job.cfg;
            jr.log = sb.log; // 'L' frames are authoritative
            return jr;
        } catch (const SimError &e) {
            jr = JobResult();
            jr.job = job;
            jr.log = sb.log;
            jr.errorKind = to_string(SimErrorKind::Crash);
            jr.error = strformat(
                "child result frame did not decode (%s)", e.what());
            return jr;
        }
    }

    if (sb.killed) {
        jr.errorKind = to_string(SimErrorKind::Timeout);
        jr.signal = "SIGKILL";
        jr.error = strformat(
            "job exceeded the %.3g s wall-clock deadline and was "
            "killed",
            opts.jobDeadlineSeconds);
    } else if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        jr.errorKind = to_string(SimErrorKind::Crash);
        jr.signal = signalName(sig);
        jr.error = strformat("child killed by %s", jr.signal.c_str());
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        jr.errorKind = to_string(SimErrorKind::Crash);
        jr.error = strformat(
            "child exited with status %d before reporting a result",
            WEXITSTATUS(status));
    } else {
        jr.errorKind = to_string(SimErrorKind::Crash);
        jr.error = "child exited without reporting a result";
    }
    return jr;
}

bool
sandboxDied(const JobResult &jr)
{
    return jr.errorKind == to_string(SimErrorKind::Crash) ||
           jr.errorKind == to_string(SimErrorKind::Timeout);
}

} // namespace

bool
isolationEnabled(const SweepOptions &opts)
{
    switch (opts.isolate) {
      case SweepIsolate::On: return true;
      case SweepIsolate::Off: return false;
      case SweepIsolate::Env: break;
    }
    const char *env = std::getenv("CMPMEM_ISOLATE");
    return env && *env && std::strcmp(env, "0") != 0;
}

void
runJobsSupervised(const std::vector<SweepJob> &jobs,
                  const std::vector<std::size_t> &order,
                  const SweepOptions &opts, int workers,
                  const JobDone &done)
{
    const int maxAttempts = 1 + std::max(0, opts.maxRetries);
    const bool hasDeadline = opts.jobDeadlineSeconds > 0;
    std::deque<std::pair<std::size_t, int>> queue; // {job, attempt}
    for (std::size_t i : order)
        queue.emplace_back(i, 1);
    std::vector<Sandbox> live;
    std::vector<pollfd> pfds;
    char chunk[4096];

    while (!queue.empty() || !live.empty()) {
        while (live.size() < std::size_t(workers) && !queue.empty()) {
            const auto [i, attempt] = queue.front();
            queue.pop_front();
            Sandbox sb;
            sb.job = i;
            sb.attempt = attempt;
            if (spawn(jobs[i], opts, live, sb)) {
                live.push_back(std::move(sb));
                continue;
            }
            JobResult jr = runJobInProcess(jobs[i]);
            jr.attempts = attempt;
            done(i, std::move(jr));
        }
        if (live.empty())
            continue;

        // Wait for output from any child, or the nearest deadline.
        pfds.clear();
        int timeout_ms = -1;
        const WallClock::time_point now = WallClock::now();
        for (const Sandbox &sb : live) {
            pfds.push_back({sb.fd, POLLIN, 0});
            if (!hasDeadline || sb.killed)
                continue;
            const int ms = int(std::clamp<long long>(
                std::chrono::ceil<std::chrono::milliseconds>(sb.deadline -
                                                             now)
                    .count(),
                0, 60 * 60 * 1000));
            timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
        }
        if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0) {
            if (errno == EINTR)
                continue;
            fatal("sweep supervisor: poll() failed (%s)",
                  std::strerror(errno));
        }

        // Hard-kill every child past its deadline, then keep reading
        // it: frames already in its pipe (the partial log) are ours.
        if (hasDeadline) {
            const WallClock::time_point after = WallClock::now();
            for (Sandbox &sb : live) {
                if (!sb.killed && after >= sb.deadline) {
                    ::kill(sb.pid, SIGKILL);
                    sb.killed = true;
                }
            }
        }

        // Read what arrived. A closed pipe (EOF) means the child
        // exited or was killed: reap and classify it. Walking back
        // keeps pfds[k] aligned with live[k] across an erase.
        for (std::size_t k = pfds.size(); k-- > 0;) {
            if (!pfds[k].revents)
                continue;
            Sandbox &sb = live[k];
            const ssize_t n = ::read(sb.fd, chunk, sizeof(chunk));
            if (n > 0)
                sb.consume(chunk, std::size_t(n));
            if (n > 0 || (n < 0 && errno == EINTR))
                continue;
            ::close(sb.fd);
            int status = 0;
            while (::waitpid(sb.pid, &status, 0) < 0 && errno == EINTR) {
            }
            // Only sandbox death is worth retrying: a deterministic
            // SimError (bad config, watchdog, checker) would fail the
            // same way on every attempt.
            const SweepJob &job = jobs[sb.job];
            JobResult jr = classify(job, sb, status, opts);
            jr.attempts = sb.attempt;
            if (sandboxDied(jr) && sb.attempt < maxAttempts) {
                warn("sweep job '%s': %s (%s); re-dispatching, attempt "
                     "%d of %d",
                     job.id.c_str(), jr.errorKind.c_str(),
                     jr.error.c_str(), sb.attempt + 1, maxAttempts);
                queue.emplace_back(sb.job, sb.attempt + 1);
            } else {
                done(sb.job, std::move(jr));
            }
            live.erase(live.begin() + std::ptrdiff_t(k));
        }
    }
}

JsonValue
jobResultToJson(const JobResult &jr, bool include_log)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("ran", JsonValue::makeBool(jr.ran));
    doc.set("verified", JsonValue::makeBool(jr.run.verified));
    doc.set("attempts", JsonValue::makeNumber(jr.attempts));
    doc.set("host_seconds", JsonValue::makeNumber(jr.run.hostSeconds));
    doc.set("workload", JsonValue::makeString(jr.run.stats.workload));
    doc.set("variant", JsonValue::makeString(jr.run.stats.variant));
    doc.set("error", JsonValue::makeString(jr.error));
    doc.set("error_kind", JsonValue::makeString(jr.errorKind));
    doc.set("signal", JsonValue::makeString(jr.signal));
    doc.set("diagnostic", JsonValue::makeString(jr.diagnostic));

    const RunStats &rs = jr.run.stats;
    JsonValue stats = fieldsToJson(rs, kRunStatsScalarFields);
    stats.set("core_total", fieldsToJson(rs.coreTotal, kCoreStatsFields));
    JsonValue perCore = JsonValue::makeArray();
    for (const auto &cs : rs.perCore)
        perCore.append(fieldsToJson(cs, kCoreStatsFields));
    stats.set("per_core", std::move(perCore));
    stats.set("l1_total", fieldsToJson(rs.l1Total, kL1CounterFields));
    stats.set("fabric", fieldsToJson(rs.fabric, kFabricCounterFields));
    stats.set("faults", fieldsToJson(rs.faults, kFaultStatsFields));
    doc.set("stats", std::move(stats));
    doc.set("energy", fieldsToJson(jr.run.energy, kEnergyFields));

    if (include_log)
        doc.set("log", JsonValue::makeString(jr.log));
    return doc;
}

void
jobResultFromJson(const JsonValue &doc, JobResult &jr)
{
    jr.run = RunResult();
    jr.ran = doc.at("ran").asBool();
    jr.run.verified = doc.at("verified").asBool();
    jr.attempts = int(doc.at("attempts").asNumber());
    jr.run.hostSeconds = doc.at("host_seconds").asNumber();
    jr.run.stats.workload = doc.at("workload").asString();
    jr.run.stats.variant = doc.at("variant").asString();
    jr.error = jsonStringOr(doc, "error", "");
    jr.errorKind = jsonStringOr(doc, "error_kind", "");
    jr.signal = jsonStringOr(doc, "signal", "");
    jr.diagnostic = jsonStringOr(doc, "diagnostic", "");
    jr.log = jsonStringOr(doc, "log", "");

    RunStats &rs = jr.run.stats;
    const JsonValue &stats = doc.at("stats");
    fieldsFromJson(stats, rs, kRunStatsScalarFields);
    fieldsFromJson(stats.at("core_total"), rs.coreTotal, kCoreStatsFields);
    for (const JsonValue &one : stats.at("per_core").items())
        fieldsFromJson(one, rs.perCore.emplace_back(), kCoreStatsFields);
    fieldsFromJson(stats.at("l1_total"), rs.l1Total, kL1CounterFields);
    fieldsFromJson(stats.at("fabric"), rs.fabric, kFabricCounterFields);
    fieldsFromJson(stats.at("faults"), rs.faults, kFaultStatsFields);
    fieldsFromJson(doc.at("energy"), jr.run.energy, kEnergyFields);
}

// ---------------------------------------------------------------- //
// SweepJournal                                                     //
// ---------------------------------------------------------------- //

namespace
{

/** Bumped whenever a record's shape changes. */
constexpr int kJournalSchema = 3;

JsonValue
journalHeader(const std::string &sweep_name)
{
    JsonValue hdr = JsonValue::makeObject();
    hdr.set("journal", JsonValue::makeString(sweep_name));
    hdr.set("schema", JsonValue::makeNumber(kJournalSchema));
    // The same sizing identity the artifact records: a journal
    // written at one scale must not seed a resume at another.
    hdr.set("scale", JsonValue::makeNumber(benchScale()));
    hdr.set("bench_scale_div",
            JsonValue::makeNumber(double(benchScaleDivisor())));
    return hdr;
}

} // namespace

SweepJournal::SweepJournal(const std::string &path,
                           const std::string &sweep_name, bool fresh)
    : path_(path)
{
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    if (fresh)
        flags |= O_TRUNC;
    fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        warn("cannot open sweep journal %s: %s (journaling disabled "
             "for this run)",
             path.c_str(), std::strerror(errno));
        return;
    }
    struct stat st;
    const bool empty = ::fstat(fd, &st) == 0 && st.st_size == 0;
    if (empty)
        writeLine(journalHeader(sweep_name).dumpCompact());
}

SweepJournal::~SweepJournal()
{
    if (fd >= 0)
        ::close(fd);
}

void
SweepJournal::writeLine(const std::string &line)
{
    std::string out = line;
    out += '\n';
    if (!writeAll(fd, out.data(), out.size())) {
        warn("sweep journal %s: write failed (%s); journaling "
             "disabled for the rest of the run",
             path_.c_str(), std::strerror(errno));
        ::close(fd);
        fd = -1;
        return;
    }
    // The write-ahead property: a record is durable before the
    // sweep moves on, so a kill at any instant leaves at most one
    // torn trailing line (which load() discards).
    ::fsync(fd);
}

bool
SweepJournal::eligible(const JobResult &jr)
{
    // Crashes and timeouts are exactly what resume must re-attempt;
    // completed runs and deterministic failures are settled.
    return !sandboxDied(jr);
}

void
SweepJournal::record(const JobResult &jr)
{
    JsonValue rec = JsonValue::makeObject();
    rec.set("id", JsonValue::makeString(jr.job.id));
    rec.set("config", configIdentityJson(jr.job.cfg));
    rec.set("stats_digest",
            JsonValue::makeString(jr.run.stats.toStatSet().digest()));
    rec.set("result", jobResultToJson(jr, true));
    const std::string line = rec.dumpCompact();
    std::lock_guard<std::mutex> lock(m);
    if (fd < 0)
        return;
    writeLine(line);
}

std::map<std::string, JobResult>
SweepJournal::load(const std::string &path,
                   const std::string &sweep_name,
                   const std::vector<SweepJob> &jobs)
{
    std::map<std::string, JobResult> out;

    std::ifstream ifs(path, std::ios::binary);
    if (!ifs) {
        warn("resume: no journal at %s; running the full sweep",
             path.c_str());
        return out;
    }
    std::string text((std::istreambuf_iterator<char>(ifs)),
                     std::istreambuf_iterator<char>());
    if (text.empty()) {
        warn("resume: journal %s is empty; running the full sweep",
             path.c_str());
        return out;
    }

    // Split into lines; a file not ending in '\n' has a torn tail
    // (the process died mid-record).
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    const bool endsComplete = !text.empty() && text.back() == '\n';

    // Header: identity of the sweep this journal belongs to. A torn
    // or unparseable header means no usable records at all.
    JsonValue hdr;
    try {
        if (lines.size() == 1 && !endsComplete)
            throw SimError(SimErrorKind::Config, "torn header line");
        hdr = JsonValue::parse(lines[0]);
    } catch (const SimError &) {
        warn("resume: journal %s has an unreadable header; running "
             "the full sweep",
             path.c_str());
        return out;
    }
    if (hdr.at("journal").asString() != sweep_name) {
        throwSimError(SimErrorKind::Config,
                      "refusing --resume: journal %s belongs to sweep "
                      "'%s', not '%s' — delete it or rerun without "
                      "--resume",
                      path.c_str(), hdr.at("journal").asString().c_str(),
                      sweep_name.c_str());
    }
    if (int(hdr.at("schema").asNumber()) != kJournalSchema) {
        throwSimError(SimErrorKind::Config,
                      "refusing --resume: journal %s has schema %d, "
                      "expected %d",
                      path.c_str(), int(hdr.at("schema").asNumber()),
                      kJournalSchema);
    }
    if (int(hdr.at("scale").asNumber()) != benchScale() ||
        std::uint64_t(hdr.at("bench_scale_div").asNumber()) !=
            benchScaleDivisor()) {
        throwSimError(
            SimErrorKind::Config,
            "refusing --resume: journal %s was written at scale=%d/"
            "div=%d but this run is scale=%d/div=%llu — results "
            "would not be comparable",
            path.c_str(), int(hdr.at("scale").asNumber()),
            int(hdr.at("bench_scale_div").asNumber()), benchScale(),
            (unsigned long long)benchScaleDivisor());
    }

    std::map<std::string, const SweepJob *> byId;
    for (const SweepJob &job : jobs)
        byId.emplace(job.id, &job);

    for (std::size_t i = 1; i < lines.size(); ++i) {
        const bool isLast = i + 1 == lines.size();
        if (isLast && !endsComplete && lines[i].empty())
            break;

        std::string id;
        JobResult jr;
        std::string recordedDigest;
        JsonValue recConfig;
        try {
            JsonValue rec = JsonValue::parse(lines[i]);
            id = rec.at("id").asString();
            recordedDigest = rec.at("stats_digest").asString();
            recConfig = rec.at("config");
            jobResultFromJson(rec.at("result"), jr);
        } catch (const SimError &) {
            // Shape/parse damage: tolerable only as the torn tail of
            // a killed run — anywhere else the file is corrupt.
            if (isLast) {
                warn("resume: discarding torn trailing record in %s "
                     "(the interrupted job will re-run)",
                     path.c_str());
                break;
            }
            throwSimError(SimErrorKind::Config,
                          "journal %s: corrupt record on line %zu — "
                          "delete the journal or rerun without "
                          "--resume",
                          path.c_str(), i + 1);
        }

        auto it = byId.find(id);
        if (it == byId.end()) {
            warn("resume: journal record for unknown job '%s' "
                 "ignored (sweep definition changed?)",
                 id.c_str());
            continue;
        }

        // Config identity must match the spec exactly — these are
        // the same fields bench_compare refuses to diff across.
        if (recConfig.dumpCompact() !=
            configIdentityJson(it->second->cfg).dumpCompact()) {
            throwSimError(
                SimErrorKind::Config,
                "refusing --resume: journal %s config identity for "
                "job '%s' does not match the sweep spec (the sweep "
                "definition changed) — delete the journal or rerun "
                "without --resume",
                path.c_str(), id.c_str());
        }

        // Integrity: the digest recomputed from the decoded stats
        // must equal the recorded key, or the record is damaged.
        if (jr.run.stats.toStatSet().digest() != recordedDigest) {
            if (isLast) {
                warn("resume: discarding trailing record with a "
                     "stats-digest mismatch in %s",
                     path.c_str());
                break;
            }
            throwSimError(SimErrorKind::Config,
                          "journal %s: stats digest mismatch on line "
                          "%zu — the journal is corrupt",
                          path.c_str(), i + 1);
        }

        jr.job = *it->second;
        // Merged without re-running: attempts = 0 distinguishes a
        // journal merge from a fresh single-attempt execution.
        jr.attempts = 0;
        out[id] = std::move(jr); // duplicates: last complete wins
    }
    return out;
}

} // namespace cmpmem
