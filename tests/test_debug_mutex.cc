/**
 * @file
 * Tests for util/debug_mutex.hh.
 *
 * In every build mode DebugMutex must behave as a mutex (exclusion,
 * try_lock, condition-variable waits).  In checked builds
 * (SNAPEA_CHECK_INVARIANTS=ON) it additionally maintains the global
 * lock-acquisition-order graph, and the detector tests apply: a
 * consistent order never trips, the injected ABBA inversion panics
 * naming both lock sets, try_lock records no ordering commitment,
 * and a destroyed mutex leaves no stale edges behind for a recycled
 * address to inherit.  The detector tests are death tests, so they
 * run in the threadsafe style (the suite itself spawns threads).
 */

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/debug_mutex.hh"

namespace {

using snapea::DebugCondVar;
using snapea::DebugMutex;

TEST(DebugMutex, ProvidesMutualExclusion)
{
    DebugMutex mu{"excl"};
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                std::lock_guard lk(mu);
                ++counter;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, 4000);
}

TEST(DebugMutex, TryLockContendsCorrectly)
{
    DebugMutex mu{"trylock"};
    mu.lock();
    std::atomic<bool> got{true};
    // From another thread the held mutex must refuse a try_lock.
    std::thread peer([&] { got.store(mu.try_lock()); });
    peer.join();
    EXPECT_FALSE(got.load());
    mu.unlock();
    EXPECT_TRUE(mu.try_lock());
    mu.unlock();
}

TEST(DebugMutex, WorksWithDebugCondVar)
{
    DebugMutex mu{"cv"};
    DebugCondVar cv;
    bool ready = false;
    std::thread producer([&] {
        std::lock_guard lk(mu);
        ready = true;
        cv.notify_one();
    });
    {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return ready; });
        EXPECT_TRUE(ready);
    }
    producer.join();
}

#if SNAPEA_CHECKS_ENABLED

// The detector tests that lock in a clean order keep their mutexes
// in static storage, so each test's mutexes have addresses of their
// own.  ThreadSanitizer keys its lock-order graph by address and does
// not see a std::mutex on the stack die, so two tests' stack mutexes
// at one address would merge into one node, and two clean orders
// would read as an inversion.

TEST(DebugMutexDetector, ConsistentOrderIsClean)
{
    // A -> B on two threads: one global order, nothing to report.
    static DebugMutex a{"order_a"}, b{"order_b"};
    auto nested = [&] {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    };
    std::thread t1(nested), t2(nested);
    t1.join();
    t2.join();
    nested();
}

// The inversion is detected from the order graph alone, so one
// thread doing A->B then B->A sequentially is enough -- no actual
// deadlock schedule required.  (A helper function, not an inline
// statement: EXPECT_DEATH is a macro and commas would split it.)
void
abbaInversion()
{
    DebugMutex a{"abba_first"};
    DebugMutex b{"abba_second"};
    {
        std::lock_guard la(a);
        std::lock_guard lb(b);
    }
    std::lock_guard lb(b);
    std::lock_guard la(a); // closes the cycle: panics here
}

TEST(DebugMutexDetector, AbbaInversionPanicsWithBothLockSets)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(abbaInversion(),
                 "lock-order cycle.*abba_first.*abba_second");
}

void
recursiveLock()
{
    DebugMutex mu{"recursive"};
    mu.lock();
    mu.lock();
}

TEST(DebugMutexDetector, RecursiveLockPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(recursiveLock(), "recursive.*recursive");
}

TEST(DebugMutexDetector, TryLockRecordsNoOrderingEdges)
{
    // try_lock(B) while holding A is an ordering-free idiom: it must
    // not record A -> B, so the later B -> A order stays legal.
    static DebugMutex a{"tl_a"}, b{"tl_b"};
    {
        std::lock_guard la(a);
        ASSERT_TRUE(b.try_lock());
        b.unlock();
    }
    {
        std::lock_guard lb(b);
        std::lock_guard la(a); // would panic if A -> B existed
    }
}

TEST(DebugMutexDetector, DestroyedMutexLeavesNoStaleEdges)
{
    // Record A -> B, destroy B, then lock (new B) -> A.  If B's node
    // survived destruction, a heap-recycled address would inherit
    // the old edge and this clean order would be reported as a
    // cycle.  (The heap mutexes are fine under ThreadSanitizer: it
    // forgets a mutex when its memory is freed.)
    static DebugMutex a{"dtor_a"};
    auto *b = new DebugMutex("dtor_b");
    {
        std::lock_guard la(a);
        std::lock_guard lb(*b);
    }
    delete b;
    auto *b2 = new DebugMutex("dtor_b2"); // often reuses b's address
    {
        std::lock_guard lb(*b2);
        std::lock_guard la(a);
    }
    delete b2;
}

#endif // SNAPEA_CHECKS_ENABLED

} // namespace
