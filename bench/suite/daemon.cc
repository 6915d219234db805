#include "daemon.hh"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "serve/timebase.hh"
#include "util/io.hh"
#include "util/subprocess.hh"

namespace snapea::bench {

namespace {

constexpr int64_t kBootTimeoutNs = 60'000'000'000;
constexpr int kStopTimeoutMs = 15000;
constexpr auto kPoll = std::chrono::milliseconds(2);

} // namespace

StatusOr<std::unique_ptr<Daemon>>
Daemon::start(const std::vector<std::string> &args,
              const std::string &run_dir)
{
    static int boot_counter = 0;
    const std::string port_file = run_dir + "/port." +
        std::to_string(::getpid()) + "." + std::to_string(++boot_counter);
    std::error_code ec;
    std::filesystem::remove(port_file, ec);

    SpawnSpec spec;
    spec.exe = SNAPEA_SERVE_BIN;
    spec.args = args;
    spec.args.push_back("--port-file");
    spec.args.push_back(port_file);

    auto d = std::unique_ptr<Daemon>(new Daemon());
    const int64_t t0 = serve::nowNs();
    StatusOr<pid_t> pid = spawnProcess(spec);
    if (!pid.ok())
        return pid.status();
    // From here on an early return stops the child in ~Daemon.
    d->pid_ = pid.value();

    while (d->port_ == 0) {
        if (serve::nowNs() - t0 > kBootTimeoutNs) {
            return Status(StatusCode::DeadlineExceeded,
                          "snapea_serve did not bind within 60 s");
        }
        int ws = 0;
        StatusOr<bool> exited = reapProcess(d->pid_, &ws);
        if (!exited.ok() || exited.value()) {
            d->pid_ = -1;
            return statusf(StatusCode::Unavailable,
                           "snapea_serve exited during boot (%s)",
                           describeWaitStatus(ws).c_str());
        }
        StatusOr<std::string> body = readFileToString(port_file);
        if (body.ok())
            d->port_ = static_cast<uint16_t>(
                std::atoi(body.value().c_str()));
        else
            std::this_thread::sleep_for(kPoll);
    }
    std::filesystem::remove(port_file, ec);

    StatusOr<serve::ServeClient> control =
        serve::ServeClient::connect("", d->port_);
    if (!control.ok())
        return control.status();
    d->control_.emplace(std::move(control).value());
    for (;;) {
        StatusOr<std::string> h = d->health();
        if (!h.ok())
            return h.status();
        if (h.value().find("\"state\": \"ready\"") != std::string::npos)
            break;
        if (serve::nowNs() - t0 > kBootTimeoutNs) {
            return Status(StatusCode::DeadlineExceeded,
                          "snapea_serve not ready within 60 s");
        }
        std::this_thread::sleep_for(kPoll);
    }
    d->boot_s_ = (serve::nowNs() - t0) / 1e9;
    return d;
}

Daemon::~Daemon()
{
    const Status st = stop();
    if (!st.ok())
        std::fprintf(stderr, "snapea_bench: %s\n", st.toString().c_str());
}

StatusOr<std::string>
Daemon::stats()
{
    return control_->statsJson();
}

StatusOr<std::string>
Daemon::health()
{
    return control_->healthJson();
}

Status
Daemon::stop()
{
    if (pid_ < 0)
        return Status();
    control_.reset();
    const pid_t pid = pid_;
    pid_ = -1;
    Status sig = signalProcess(pid, SIGTERM);
    int ws = 0;
    Status reaped = reapWithDeadline(pid, &ws, kStopTimeoutMs);
    if (!reaped.ok())
        return reaped;
    if (!sig.ok())
        return sig;
    if (!WIFEXITED(ws) || WEXITSTATUS(ws) != 0) {
        return statusf(StatusCode::Unavailable,
                       "snapea_serve did not drain cleanly (%s)",
                       describeWaitStatus(ws).c_str());
    }
    return Status();
}

double
jsonNumber(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = json.find(needle);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

std::vector<pid_t>
workerPids(const std::string &health_json)
{
    std::vector<pid_t> pids;
    const std::string needle = "\"pid\": ";
    for (size_t pos = health_json.find(needle); pos != std::string::npos;
         pos = health_json.find(needle, pos + 1)) {
        const long pid =
            std::strtol(health_json.c_str() + pos + needle.size(),
                        nullptr, 10);
        if (pid > 0)
            pids.push_back(static_cast<pid_t>(pid));
    }
    return pids;
}

double
peakRssMb(pid_t pid)
{
    StatusOr<std::string> status =
        readFileToString("/proc/" + std::to_string(pid) + "/status");
    if (!status.ok())
        return 0.0;
    const size_t pos = status.value().find("VmHWM:");
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(status.value().c_str() + pos + 6, nullptr) /
        1024.0;
}

} // namespace snapea::bench
