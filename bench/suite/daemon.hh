/**
 * @file
 * The real snapea_serve daemon as a child process of the bench: boot
 * it, wait until its HEALTH reports ready, query STATS/HEALTH on a
 * control connection of its own (the load connection never carries
 * control frames), read its memory high-water marks, and stop it.
 */

#ifndef SNAPEA_BENCH_SUITE_DAEMON_HH
#define SNAPEA_BENCH_SUITE_DAEMON_HH

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "util/status.hh"

namespace snapea::bench {

/** A running snapea_serve, stopped (SIGTERM, then reaped) on destruction. */
class Daemon
{
  public:
    /**
     * Spawn snapea_serve with @p args (plus a port file under
     * @p run_dir) and wait until HEALTH says "ready".
     */
    static StatusOr<std::unique_ptr<Daemon>>
    start(const std::vector<std::string> &args, const std::string &run_dir);

    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** Spawn until HEALTH first reported ready, in seconds. */
    double bootSeconds() const { return boot_s_; }

    StatusOr<std::string> stats();
    StatusOr<std::string> health();

    /** Graceful drain and reap; idempotent. */
    Status stop();

  private:
    Daemon() = default;

    pid_t pid_ = -1;
    uint16_t port_ = 0;
    double boot_s_ = 0.0;
    std::optional<serve::ServeClient> control_;
};

/** First `"key": <number>` in @p json (0 if absent). */
double jsonNumber(const std::string &json, const std::string &key);

/** Every `"pid": N` in a HEALTH document (the pool's worker pids). */
std::vector<pid_t> workerPids(const std::string &health_json);

/** VmHWM of @p pid in MiB (0 if unreadable). */
double peakRssMb(pid_t pid);

} // namespace snapea::bench

#endif // SNAPEA_BENCH_SUITE_DAEMON_HH
