/**
 * @file
 * snapea_serve: the long-lived TCP inference daemon.
 *
 * Boots one serving instance of serve::Server around a model built
 * from a seed (same derivation chain as the benches, so any reply can
 * be reproduced offline with snapea_cli at the same seed), prints the
 * bound port, then parks until SIGINT/SIGTERM trips the global cancel
 * token.  The first signal starts a graceful drain: no new
 * connections or frames, every admitted request completed and
 * answered, the daemon lock released, final stats printed.  A second
 * signal force-exits (see util/cancel.hh).
 *
 * Options:
 *   --model <name>      model to serve (default AlexNet)
 *   --input <px>        input resolution (default 48)
 *   --mu <th>           predictive-level threshold Th (default 0)
 *   --groups <n>        speculation prefix length N (default 8)
 *   --seed <n>          weight/calibration seed (default 42)
 *   --port <p>          TCP port; 0 = kernel-assigned (default)
 *   --port-file <path>  write the bound port to a file (atomic)
 *   --queue <n>         bounded-queue capacity (default 64)
 *   --batch <n>         max requests per worker batch (default 4)
 *   --workers <n>       worker threads (default 2)
 *   --retries <n>       attempts per request (default 3)
 *   --backoff-ms <n>    first retry backoff, doubles capped (default 10)
 *   --deadline-ms <n>   default per-request deadline; 0 = none
 *   --lock <path>       daemon lock file; empty disables locking
 *   --no-ladder         freeze degradation at Exact (bench baseline)
 *   --threads <n>       engine threads per forward pass
 *   --fault <spec>      arm SNAPEA_FAULT-style injection once serving
 *                       starts (chaos testing: boot stays clean, the
 *                       request path sees the faults)
 *
 * Crash isolation (DESIGN.md §5g).  By default the daemon serves
 * through a supervised pool of worker *processes* (this same binary
 * re-exec'd with --worker-fd), so an inference crash kills a child
 * and the supervisor re-dispatches, instead of taking the daemon
 * down:
 *   --in-process            inference in the daemon process (the
 *                           crash-fragile baseline; unit tests and the
 *                           bench baseline arm use this)
 *   --worker-fault <spec>   fault spec armed inside each worker after
 *                           its boot (e.g. crash:worker:5)
 *   --restart-backoff-ms <n>  first worker respawn delay (default 50)
 *   --storm-restarts <n>    breaker threshold: more deaths than this
 *                           inside --storm-window-ms opens the
 *                           crash-storm breaker (default 5)
 *   --storm-window-ms <n>   breaker window (default 10000)
 *   --audit-rate <n>        shadow-audit every n-th predictive Ok
 *                           reply in exact mode; 0 disables (default;
 *                           env SNAPEA_AUDIT_RATE)
 *   --audit-budget <x>      divergence-rate budget before Predictive
 *                           is vetoed (default 0.05; env
 *                           SNAPEA_AUDIT_BUDGET)
 *   --worker-fd <n>         run as a pool worker on command-stream fd
 *                           <n> (internal; spawned by the supervisor)
 *
 * Exit status: 0 on a clean signal-initiated drain; 1 when the server
 * fails to start (port in use, lock held, model build failure); 2 on
 * usage errors.  Worker mode exits 0 on a clean supervisor EOF.
 */

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "serve/server.hh"
#include "util/cancel.hh"
#include "util/fault.hh"
#include "util/io.hh"
#include "util/thread_pool.hh"

using namespace snapea;
using namespace snapea::serve;

namespace {

constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;

void
printUsage(FILE *to)
{
    std::fprintf(
        to,
        "usage: snapea_serve [options]\n"
        "  --model <name>     model to serve (default AlexNet)\n"
        "  --input <px>       input resolution (default 48)\n"
        "  --mu <th>          predictive threshold Th (default 0)\n"
        "  --groups <n>       speculation prefix length (default 8)\n"
        "  --seed <n>         weight/calibration seed (default 42)\n"
        "  --port <p>         TCP port; 0 = kernel-assigned\n"
        "  --port-file <path> write the bound port to a file\n"
        "  --queue <n>        queue capacity (default 64)\n"
        "  --batch <n>        max batch size (default 4)\n"
        "  --workers <n>      worker threads (default 2)\n"
        "  --retries <n>      attempts per request (default 3)\n"
        "  --backoff-ms <n>   first retry backoff (default 10)\n"
        "  --deadline-ms <n>  default request deadline; 0 = none\n"
        "  --lock <path>      daemon lock file\n"
        "  --no-ladder        freeze degradation at Exact\n"
        "  --threads <n>      engine threads per forward\n"
        "  --fault <spec>     arm fault injection after boot\n"
        "  --in-process       no worker pool (crash-fragile)\n"
        "  --worker-fault <spec>      worker-side fault spec\n"
        "  --restart-backoff-ms <n>   first respawn delay (50)\n"
        "  --storm-restarts <n>       breaker threshold (5)\n"
        "  --storm-window-ms <n>      breaker window (10000)\n"
        "  --audit-rate <n>   audit every n-th predictive reply\n"
        "  --audit-budget <x> divergence budget (0.05)\n"
        "  --worker-fd <n>    run as a pool worker (internal)\n");
}

[[noreturn]] void
usageError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void
usageError(const char *fmt, ...)
{
    std::fprintf(stderr, "snapea_serve: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    printUsage(stderr);
    std::exit(kExitUsage);
}

/** Full-string parse of a decimal integer in [min, max]. */
long
parseInt(const char *flag, const std::string &text, long min, long max)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || v < min ||
        v > max) {
        usageError("%s: '%s' is not an integer in [%ld, %ld]", flag,
                   text.c_str(), min, max);
    }
    return v;
}

/** Full-string parse of a finite decimal number. */
double
parseDouble(const char *flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || errno != 0) {
        usageError("%s: '%s' is not a number", flag, text.c_str());
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    std::string port_file;
    std::string fault_spec;
    std::string worker_fault;
    bool in_process = false;
    int worker_fd = -1;
    int threads = 0;

    // Environment defaults for the audit guardrail; flags override.
    if (const char *env = std::getenv("SNAPEA_AUDIT_RATE")) {
        cfg.audit_rate = static_cast<int>(
            parseInt("SNAPEA_AUDIT_RATE", env, 0, 1 << 20));
    }
    if (const char *env = std::getenv("SNAPEA_AUDIT_BUDGET")) {
        cfg.audit_budget = parseDouble("SNAPEA_AUDIT_BUDGET", env);
    }

    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto flagValue = [&](const char *flag) -> const std::string & {
            if (i + 1 >= args.size())
                usageError("%s requires a value", flag);
            return args[++i];
        };
        if (arg == "--model") {
            cfg.model.model = flagValue("--model");
        } else if (arg == "--input") {
            cfg.model.input_px = static_cast<int>(
                parseInt("--input", flagValue("--input"), 16, 512));
        } else if (arg == "--mu") {
            cfg.model.mu = static_cast<float>(
                parseDouble("--mu", flagValue("--mu")));
        } else if (arg == "--groups") {
            cfg.model.spec_groups = static_cast<int>(
                parseInt("--groups", flagValue("--groups"), 1, 4096));
        } else if (arg == "--seed") {
            cfg.model.seed = static_cast<uint32_t>(
                parseInt("--seed", flagValue("--seed"), 0,
                         std::numeric_limits<uint32_t>::max()));
        } else if (arg == "--port") {
            cfg.port = static_cast<uint16_t>(
                parseInt("--port", flagValue("--port"), 0, 65535));
        } else if (arg == "--port-file") {
            port_file = flagValue("--port-file");
        } else if (arg == "--queue") {
            cfg.queue_capacity = static_cast<size_t>(
                parseInt("--queue", flagValue("--queue"), 4, 1 << 20));
        } else if (arg == "--batch") {
            cfg.batch_max = static_cast<size_t>(
                parseInt("--batch", flagValue("--batch"), 1, 4096));
        } else if (arg == "--workers") {
            cfg.workers = static_cast<int>(
                parseInt("--workers", flagValue("--workers"), 1, 256));
        } else if (arg == "--retries") {
            cfg.retry_attempts = static_cast<int>(
                parseInt("--retries", flagValue("--retries"), 1, 100));
        } else if (arg == "--backoff-ms") {
            cfg.retry_backoff_ms = static_cast<int>(parseInt(
                "--backoff-ms", flagValue("--backoff-ms"), 0, 60000));
        } else if (arg == "--deadline-ms") {
            cfg.default_deadline_s =
                parseInt("--deadline-ms", flagValue("--deadline-ms"),
                         0, 86400000) /
                1000.0;
        } else if (arg == "--lock") {
            cfg.lock_path = flagValue("--lock");
        } else if (arg == "--no-ladder") {
            cfg.ladder_enabled = false;
        } else if (arg == "--fault") {
            fault_spec = flagValue("--fault");
        } else if (arg == "--in-process") {
            in_process = true;
        } else if (arg == "--worker-fault") {
            worker_fault = flagValue("--worker-fault");
        } else if (arg == "--restart-backoff-ms") {
            cfg.restart_backoff_ms = static_cast<int>(
                parseInt("--restart-backoff-ms",
                         flagValue("--restart-backoff-ms"), 0, 60000));
        } else if (arg == "--storm-restarts") {
            cfg.storm_restarts = static_cast<int>(
                parseInt("--storm-restarts",
                         flagValue("--storm-restarts"), 1, 1 << 20));
        } else if (arg == "--storm-window-ms") {
            cfg.storm_window_ms = static_cast<int>(
                parseInt("--storm-window-ms",
                         flagValue("--storm-window-ms"), 1, 86400000));
        } else if (arg == "--audit-rate") {
            cfg.audit_rate = static_cast<int>(parseInt(
                "--audit-rate", flagValue("--audit-rate"), 0, 1 << 20));
        } else if (arg == "--audit-budget") {
            cfg.audit_budget = parseDouble(
                "--audit-budget", flagValue("--audit-budget"));
        } else if (arg == "--worker-fd") {
            worker_fd = static_cast<int>(parseInt(
                "--worker-fd", flagValue("--worker-fd"), 3, 1 << 16));
        } else if (arg == "--threads") {
            threads = static_cast<int>(parseInt(
                "--threads", flagValue("--threads"), 1, 1024));
            util::setThreadCount(threads);
        } else {
            usageError("unknown option '%s'", arg.c_str());
        }
    }

    // Worker mode: this process is one slot of a supervisor's pool.
    // Build the engines, handshake on the command stream, and serve
    // until the supervisor closes it.  The daemon-only flags parsed
    // above are simply unused here.
    if (worker_fd >= 0) {
        WorkerMainConfig wcfg;
        wcfg.fd = worker_fd;
        wcfg.model = cfg.model;
        wcfg.retry_attempts = cfg.retry_attempts;
        wcfg.retry_backoff_ms = cfg.retry_backoff_ms;
        wcfg.fault_spec = fault_spec;
        return runWorkerMain(wcfg);
    }

    if (in_process && !worker_fault.empty()) {
        usageError(
            "--worker-fault needs the worker pool (drop --in-process)");
    }

    // Default serving mode is crash-isolated: re-exec ourselves as
    // the pool workers.  /proc/self/exe survives argv[0] being a bare
    // name looked up through PATH.
    if (!in_process) {
        char exe[4096];
        const ssize_t n =
            ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
        if (n > 0) {
            exe[n] = '\0';
            cfg.worker_exe = exe;
        } else {
            cfg.worker_exe = argv[0];
        }
        if (threads > 0) {
            cfg.worker_extra_args.push_back("--threads");
            cfg.worker_extra_args.push_back(std::to_string(threads));
        }
        if (!worker_fault.empty()) {
            cfg.worker_extra_args.push_back("--fault");
            cfg.worker_extra_args.push_back(worker_fault);
        }
    }

    installSignalCancelHandlers();

    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    if (!server.ok()) {
        std::fprintf(stderr, "snapea_serve: %s\n",
                     server.status().toString().c_str());
        return server.status().code() == StatusCode::InvalidArgument
            ? kExitUsage
            : kExitRuntime;
    }

    std::fprintf(stdout, "listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.value()->port()));
    std::fflush(stdout);
    // Chaos hook: arm fault injection only now, so model build and
    // calibration ran clean and the injected faults land on the
    // request path (where the retry/shed machinery is the thing under
    // test).  Arm before publishing the port file: a client that
    // waits for the file must never reach an unarmed daemon (the
    // file's directory fsync can take long on a busy disk).
    if (!fault_spec.empty()) {
        Status st = setFaultSpec(fault_spec);
        if (st.ok()) {
            std::fprintf(stdout, "fault injection armed: %s\n",
                         fault_spec.c_str());
            std::fflush(stdout);
        } else {
            std::fprintf(stderr, "snapea_serve: --fault: %s\n",
                         st.toString().c_str());
            return kExitUsage;
        }
    }

    if (!port_file.empty()) {
        Status st = atomicWriteFile(
            port_file, std::to_string(server.value()->port()));
        if (!st.ok()) {
            std::fprintf(stderr, "snapea_serve: %s\n",
                         st.toString().c_str());
            return kExitRuntime;
        }
    }

    // Park until the first SIGINT/SIGTERM.  Replies never depend on
    // this loop; it only observes the signal flag.
    while (!globalCancelToken().cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    server.value()->drainAndJoin();
    std::fprintf(stdout, "%s\n",
                 server.value()->statsJson().c_str());
    std::fflush(stdout);
    return 0;
}
