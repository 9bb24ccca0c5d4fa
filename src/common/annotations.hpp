// Static-analysis annotations consumed by tools/dklint and Clang.
//
// Two annotation families (docs/STATIC_ANALYSIS.md is the full guide):
//
//  DK_HOT           — marks a function as hot-path. dklint's H-checks then
//                     statically enforce the PR 6 EventFn discipline inside
//                     it: no heap traffic (DK-H001), no std::function
//                     (DK-H002), and only small, explicitly-listed lambda
//                     captures (DK-H003). Under any compiler it also expands
//                     to [[gnu::hot]] as a codegen hint; under Clang it adds
//                     annotate("dk_hot") so the libclang backend finds it in
//                     the AST. Put DK_HOT on *definitions* — the textual
//                     dklint backend analyzes the body that follows the
//                     marker.
//  DK_GUARDED_BY &c — wrappers over Clang's Thread Safety Analysis
//                     attributes (-Wthread-safety). They expand to nothing
//                     under GCC, so the tier-1 build is unaffected; the
//                     dedicated Clang CI job compiles src/ with
//                     -Wthread-safety -Werror=thread-safety. Use them with
//                     the annotated dk::Mutex capability wrappers from
//                     common/mutex.hpp — raw std::mutex is invisible to the
//                     analysis (and banned in src/ by dklint DK-T002).
#pragma once

#if defined(__clang__)
#define DK_TSA_(x) __attribute__((x))
#else
#define DK_TSA_(x)
#endif

// --- thread-safety capability attributes ------------------------------------

/// On a class: instances are lockable capabilities (see dk::Mutex).
#define DK_CAPABILITY(x) DK_TSA_(capability(x))
/// On a class: RAII object that acquires in its ctor, releases in its dtor.
#define DK_SCOPED_CAPABILITY DK_TSA_(scoped_lockable)

/// On a data member: reads and writes require holding `x`.
#define DK_GUARDED_BY(x) DK_TSA_(guarded_by(x))
/// On a pointer member: the pointed-to data requires holding `x`.
#define DK_PT_GUARDED_BY(x) DK_TSA_(pt_guarded_by(x))

/// On a function: callers must hold the given capabilities.
#define DK_REQUIRES(...) DK_TSA_(requires_capability(__VA_ARGS__))
/// On a function: callers must NOT hold the given capabilities.
#define DK_EXCLUDES(...) DK_TSA_(locks_excluded(__VA_ARGS__))

/// On a function: acquires / releases the given capabilities.
#define DK_ACQUIRE(...) DK_TSA_(acquire_capability(__VA_ARGS__))
#define DK_RELEASE(...) DK_TSA_(release_capability(__VA_ARGS__))
/// On a function: acquires the capability when returning `b`.
#define DK_TRY_ACQUIRE(b, ...) DK_TSA_(try_acquire_capability(b, __VA_ARGS__))

// --- hot-path marker --------------------------------------------------------

#if defined(__clang__)
#define DK_HOT __attribute__((hot, annotate("dk_hot")))
#else
#define DK_HOT __attribute__((hot))
#endif
