#include "sweep/exec.h"

#include <cerrno>
#include <cstring>
#include <ostream>
#include <set>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sweep/forensics.h"
#include "sweep/manifest.h"

namespace c4::sweep {

namespace {

/** One in-flight shard child. */
struct Child
{
    pid_t pid = -1;
    std::size_t shard = 0;
};

} // namespace

pid_t
launchBench(const std::string &bench, const std::string &spec,
            const std::vector<std::string> &args, bool smoke,
            const std::string &csv, const std::string &log,
            std::string &error)
{
    // argv is built before fork(): the child may only make
    // async-signal-safe calls until exec, and allocating is not one.
    std::vector<const char *> argv = {bench.c_str(), "--spec",
                                      spec.c_str(), "--csv", "-"};
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    if (smoke)
        argv.push_back("--smoke");
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        return -1;
    }
    if (pid > 0)
        return pid;

    // Child.
    const int csvFd =
        open(csv.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int logFd =
        open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (csvFd < 0 || logFd < 0 || dup2(csvFd, STDOUT_FILENO) < 0 ||
        dup2(logFd, STDERR_FILENO) < 0) {
        // Close whichever side did open before bailing: _exit skips
        // atexit handlers but not the kernel's view of an fd leaked
        // into a failed setup path.
        if (csvFd >= 0)
            close(csvFd);
        if (logFd >= 0)
            close(logFd);
        _exit(126);
    }
    close(csvFd);
    close(logFd);
    execv(bench.c_str(), const_cast<char *const *>(argv.data()));
    _exit(127);
}

int
exitCodeOf(int status)
{
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
}

std::string
siblingBenchPath()
{
    char buf[4096];
    const ssize_t n =
        readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "c4bench";
    buf[n] = '\0';
    std::string path(buf);
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return "c4bench";
    return path.substr(0, slash + 1) + "c4bench";
}

std::string
runCampaign(const ExecRequest &request, ExecStats &stats,
            std::ostream &diag)
{
    Manifest manifest;
    try {
        manifest = loadManifest(request.dir);
    } catch (const std::exception &e) {
        return e.what();
    }
    if (request.workers < 1)
        return "--workers must be >= 1";
    if (request.maxAttempts < 1)
        return "the attempt budget must be >= 1";

    const std::string bench =
        request.bench.empty() ? siblingBenchPath() : request.bench;
    if (access(bench.c_str(), X_OK) != 0) {
        return "cannot execute bench binary '" + bench +
               "': " + std::strerror(errno) + " (pass --bench)";
    }

    // `--only`: validate every id against the manifest up front.
    // Non-selected shards are never touched, not even their journal
    // state: on a multi-host split, this host's view of a peer's
    // shard is stale by construction.
    ShardSelection selected;
    const std::string badOnly =
        selectShards(manifest, request.only, selected);
    if (!badOnly.empty())
        return badOnly;

    // Crash recovery: a `running` shard at load means a previous
    // executor died (or was killed) mid-shard. Its CSV may be
    // truncated; the execution never journaled a result, so it does
    // not consume an attempt — just re-queue it.
    bool dirty = false;
    for (Shard &s : manifest.shards) {
        if (!selected(s)) {
            if (s.status == ShardStatus::Done)
                ++stats.skipped;
            continue;
        }
        if (s.status == ShardStatus::Running) {
            diag << s.id
                 << ": interrupted by a previous run; re-queuing\n";
            s.status = ShardStatus::Pending;
            dirty = true;
        } else if (s.status == ShardStatus::Failed &&
                   s.attempts < request.maxAttempts) {
            // A raised attempt budget re-opens previously parked
            // shards.
            diag << s.id << ": re-queuing failed shard (attempt "
                 << s.attempts + 1 << "/" << request.maxAttempts
                 << ")\n";
            s.status = ShardStatus::Pending;
            dirty = true;
        } else if (s.status == ShardStatus::Done) {
            ++stats.skipped;
        }
    }
    if (dirty)
        saveManifest(request.dir, manifest);

    std::vector<Child> running;
    std::set<std::size_t> launched; // distinct shards, for --max-shards

    // Journal one reaped child. Shared by the main loop and the
    // error-path drain below.
    auto finishChild = [&](pid_t pid, int status) {
        auto it = running.begin();
        for (; it != running.end(); ++it) {
            if (it->pid == pid)
                break;
        }
        if (it == running.end())
            return; // not one of ours
        Shard &shard = manifest.shards[it->shard];
        running.erase(it);

        const int code = exitCodeOf(status);
        // The child reserves 126 for "setup failed before exec"
        // (could not open/redirect the CSV or log) and 127 for "could
        // not exec the bench" — distinct from the bench itself
        // exiting non-zero, which is what the shard log explains.
        const char *why = code == 126
                              ? " (child setup failed: could not "
                                "open or redirect the shard CSV/log)"
                              : code == 127
                                    ? " (cannot exec the bench "
                                      "binary)"
                                    : "";
        ++shard.attempts;
        shard.exitCode = code;
        if (code == 0) {
            shard.status = ShardStatus::Done;
            ++stats.executed;
            diag << shard.id << ": done\n";
        } else if (shard.attempts < request.maxAttempts) {
            shard.status = ShardStatus::Pending;
            diag << shard.id << ": exit " << code << why
                 << "; retrying (" << shard.attempts << "/"
                 << request.maxAttempts << " attempts used)\n";
        } else {
            shard.status = ShardStatus::Failed;
            ++stats.failed;
            diag << shard.id << ": exit " << code << why
                 << "; out of attempts — see "
                 << campaignPath(request.dir, shard.log) << "\n";
        }
        saveManifest(request.dir, manifest);

        // Budget exhausted: cut the failure bundle while the loss is
        // fresh. Best-effort — a bundle that cannot be captured must
        // not turn a journaled shard failure into a campaign error.
        if (shard.status == ShardStatus::Failed && request.forensics) {
            const std::string bundleError = captureBundle(
                request.dir, shard, bench, manifest.smoke, diag);
            if (bundleError.empty())
                ++stats.bundles;
            else
                diag << shard.id
                     << ": forensics capture failed: " << bundleError
                     << "\n";
        }
    };

    // Before returning an infrastructure error, wait for every
    // in-flight child and journal its result — abandoning live
    // children would leave them writing shard CSVs that a resumed
    // campaign could re-queue and write concurrently.
    auto drainAndFail = [&](std::string error) {
        while (!running.empty()) {
            int status = 0;
            const pid_t pid = waitpid(-1, &status, 0);
            if (pid < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            finishChild(pid, status);
        }
        return error;
    };

    auto nextPending = [&]() -> std::ptrdiff_t {
        for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
            if (manifest.shards[i].status != ShardStatus::Pending)
                continue;
            if (!selected(manifest.shards[i]))
                continue;
            if (request.maxShards > 0 && launched.count(i) == 0 &&
                static_cast<int>(launched.size()) >=
                    request.maxShards) {
                continue; // budget spent; retries of launched ok
            }
            return static_cast<std::ptrdiff_t>(i);
        }
        return -1;
    };

    for (;;) {
        while (static_cast<int>(running.size()) < request.workers) {
            const std::ptrdiff_t idx = nextPending();
            if (idx < 0)
                break;
            Shard &shard = manifest.shards[idx];
            shard.status = ShardStatus::Running;
            saveManifest(request.dir, manifest);
            std::string spawnError;
            // Per-shard snapshot directory; c4bench creates the
            // directory tree itself.
            std::vector<std::string> args;
            if (request.metrics) {
                args = {"--metrics",
                        campaignPath(request.dir, "metrics/" + shard.id)};
            }
            const pid_t pid = launchBench(
                bench, campaignPath(request.dir, shard.spec), args,
                manifest.smoke, campaignPath(request.dir, shard.csv),
                campaignPath(request.dir, shard.log), spawnError);
            if (pid < 0) {
                shard.status = ShardStatus::Pending;
                saveManifest(request.dir, manifest);
                return drainAndFail(spawnError);
            }
            launched.insert(static_cast<std::size_t>(idx));
            diag << shard.id << ": started (trials ["
                 << shard.trialBegin << ", "
                 << shard.trialBegin + shard.trialCount << "), pid "
                 << pid << ")\n";
            running.push_back(
                {pid, static_cast<std::size_t>(idx)});
        }
        if (running.empty())
            break;

        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid < 0) {
            if (errno == EINTR)
                continue;
            return std::string("waitpid: ") + std::strerror(errno);
        }
        finishChild(pid, status);
    }

    for (const Shard &s : manifest.shards) {
        if (s.status == ShardStatus::Pending)
            ++stats.remaining;
    }
    diag << "run: " << stats.executed << " executed, "
         << stats.skipped << " skipped (already done), "
         << stats.failed << " failed, " << stats.remaining
         << " still pending";
    if (stats.bundles > 0)
        diag << ", " << stats.bundles << " failure bundle(s) under "
             << campaignPath(request.dir, "forensics");
    diag << "\n";
    return "";
}

} // namespace c4::sweep
