// Clang Thread Safety Analysis attribute macros.
//
// These wrap clang's -Wthread-safety attributes so lock discipline is
// *proved at compile time* instead of sampled at runtime: a field tagged
// MMHAR_GUARDED_BY(mu) can only be touched while `mu` is held, a function
// tagged MMHAR_REQUIRES(mu) can only be called with `mu` held, and the CI
// thread-safety leg (clang, -Wthread-safety -Werror; see
// .github/workflows/ci.yml and the MMHAR_THREAD_SAFETY CMake option)
// rejects any violation. TSan (the `thread` sanitizer leg) still runs —
// it catches what the annotations cannot express — but the annotations
// catch what a test schedule never happens to execute.
//
// On non-clang compilers every macro expands to nothing, so GCC builds
// are byte-for-byte unaffected.
//
// The capability-annotated lock types that these attributes name live in
// common/mutex.h (raw std::mutex cannot be used as a capability because
// libstdc++ does not annotate it). Every file that uses one of these
// macros must include this header directly — enforced by the
// `header-hygiene` rule of tools/mmhar_check.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__)
#define MMHAR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MMHAR_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares a type to be a lockable capability ("mutex", "shared_mutex").
#define MMHAR_CAPABILITY(x) MMHAR_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires in its constructor and releases in
/// its destructor.
#define MMHAR_SCOPED_CAPABILITY MMHAR_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while `x` is held (shared hold
/// suffices for reads, exclusive for writes).
#define MMHAR_GUARDED_BY(x) MMHAR_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define MMHAR_PT_GUARDED_BY(x) MMHAR_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function precondition: caller holds the capability exclusively.
#define MMHAR_REQUIRES(...) \
  MMHAR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function precondition: caller holds the capability at least shared.
#define MMHAR_REQUIRES_SHARED(...) \
  MMHAR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively (and does not release it).
#define MMHAR_ACQUIRE(...) \
  MMHAR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared.
#define MMHAR_ACQUIRE_SHARED(...) \
  MMHAR_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (generic: exclusive or shared).
#define MMHAR_RELEASE(...) \
  MMHAR_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define MMHAR_TRY_ACQUIRE(...) \
  MMHAR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must be called with the capability NOT held (deadlock guard).
#define MMHAR_EXCLUDES(...) MMHAR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Asserts (for the analysis only) that the capability is held here.
#define MMHAR_ASSERT_CAPABILITY(x) \
  MMHAR_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define MMHAR_RETURN_CAPABILITY(x) MMHAR_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch — OFF-LIMITS in thread_pool.{h,cpp}, dsp/fft.cpp and
/// dsp/window.cpp (the -Wthread-safety acceptance bar is zero
/// suppressions there); elsewhere it needs a comment explaining why the
/// analysis cannot see the discipline.
#define MMHAR_NO_THREAD_SAFETY_ANALYSIS \
  MMHAR_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Real-time-safety annotations (consumed by tools/mmhar_check's rt rules).
//
// MMHAR_REALTIME marks a function on the serving steady-state path: the
// static checker proves that nothing reachable from it allocates, acquires
// a lock, blocks, throws, or reads an unregistered MMHAR_* env knob.
// MMHAR_REALTIME_HANDOFF is the same contract except that the function's
// *own body* may acquire bounded critical sections through the annotated
// lock wrappers in common/mutex.h (the slot hand-off protocol: free-list /
// queued-ring exchange, result publication, plan-cache lookup). The
// exemption does not propagate: callees of a hand-off function are checked
// under the full MMHAR_REALTIME rules.
//
// Both macros sit in the trailing attribute position, after the parameter
// list: `void submit_frame(...) MMHAR_REALTIME_HANDOFF;`.
//
// Off-clang (and on clang without the opt-in below) they expand to
// nothing; tools/mmhar_check reads them textually either way. When
// CMake defines MMHAR_RT_EFFECT_ATTRIBUTES (the MMHAR_SANITIZE=realtime
// leg) and the compiler understands clang's function-effect attributes,
// MMHAR_REALTIME maps to [[clang::nonblocking]] — the effect
// RealtimeSanitizer instruments, forbidding locks — and
// MMHAR_REALTIME_HANDOFF to the weaker [[clang::nonallocating]], which
// permits the bounded lock hand-off but still bans allocation and
// exceptions. The mapping is opt-in rather than always-on under clang so
// the existing clang CI legs do not take on -Wfunction-effects churn.
#if defined(MMHAR_RT_EFFECT_ATTRIBUTES) && defined(__clang__) && \
    defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::nonblocking) && \
    __has_cpp_attribute(clang::nonallocating)
#define MMHAR_REALTIME [[clang::nonblocking]]
#define MMHAR_REALTIME_HANDOFF [[clang::nonallocating]]
#endif
#endif
#ifndef MMHAR_REALTIME
#define MMHAR_REALTIME          // no-op: checked textually by mmhar_check
#define MMHAR_REALTIME_HANDOFF  // no-op: checked textually by mmhar_check
#endif

// MMHAR_DETERMINISTIC marks a determinism root: every function reachable
// from it must be bit-reproducible run to run (no hash-order iteration, no
// clock/rand/thread-id/address-derived values, no racy parallel
// reductions, no post-startup env reads). Checked transitively over the
// whole-repo call graph by tools/mmhar_check; the required root set is
// pinned in tools/check_roots.txt. Unlike MMHAR_REALTIME it never maps
// to a compiler attribute — there is no hardware/compiler notion of
// determinism to hand the claim to — so it is unconditionally empty and
// may appear anywhere in a declaration, including before `override`.
#define MMHAR_DETERMINISTIC  // no-op: checked textually by mmhar_check
