#ifndef MINIRAID_COMMON_THREAD_ANNOTATIONS_H_
#define MINIRAID_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis attribute macros (no-ops on other
/// compilers). They let the compiler prove lock discipline statically:
/// every access to a MR_GUARDED_BY field is rejected at compile time
/// unless the named capability (mutex) is held, and lock ordering declared
/// with MR_ACQUIRED_BEFORE forbids whole deadlock classes that TSan can
/// only observe at runtime.
///
/// Build with the `clang-tsa` CMake preset (clang++, -Wthread-safety
/// -Werror=thread-safety) to enforce; GCC builds compile the annotations
/// away. Use the annotated wrappers in common/mutex.h rather than
/// std::mutex — miniraid-analyze's raw-mutex rule rejects raw
/// standard-library synchronization types outside src/common/.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define MR_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef MR_THREAD_ANNOTATION_
#define MR_THREAD_ANNOTATION_(x)  // not clang: annotations compile away
#endif

/// Marks a class as a capability (something that can be held). The string
/// names the capability kind in diagnostics ("mutex", "role", ...).
#define MR_CAPABILITY(x) MR_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor (std::lock_guard shape).
#define MR_SCOPED_CAPABILITY MR_THREAD_ANNOTATION_(scoped_lockable)

/// Field may only be read or written while holding the given capability.
#define MR_GUARDED_BY(x) MR_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field whose *pointee* is protected by the given capability.
#define MR_PT_GUARDED_BY(x) MR_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares lock order: this capability must be acquired before / after
/// the listed ones. Violations are whole deadlock classes; clang checks
/// them under -Wthread-safety-beta (as warnings only), and miniraid-analyze's
/// lock-order pass checks the declared graph for cycles and diffs it against
/// the acquisition order actually observed in function bodies
/// (docs/ANALYSIS.md §8). The analyzer reads the macro tokens themselves.
#define MR_ACQUIRED_BEFORE(...) \
  MR_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define MR_ACQUIRED_AFTER(...) \
  MR_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function requires the listed capabilities to be held on entry (and does
/// not release them).
#define MR_REQUIRES(...) \
  MR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define MR_REQUIRES_SHARED(...) \
  MR_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires / releases the listed capabilities (or `this` for a
/// capability class's own methods when the list is empty).
#define MR_ACQUIRE(...) MR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define MR_RELEASE(...) MR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function tries to acquire the capability and returns `ret` on success.
#define MR_TRY_ACQUIRE(ret, ...) \
  MR_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// Caller must NOT hold the listed capabilities (anti-deadlock for
/// self-locking APIs).
#define MR_EXCLUDES(...) MR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held; informs the analysis.
#define MR_ASSERT_CAPABILITY(x) MR_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the given capability (accessor form).
#define MR_RETURN_CAPABILITY(x) MR_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function is excluded from analysis. Permitted only
/// inside src/common/ wrapper internals; everywhere else the tree builds
/// with zero suppressions.
#define MR_NO_THREAD_SAFETY_ANALYSIS \
  MR_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// ---------------------------------------------------------------------------
/// Execution-context confinement (checked by tools/miniraid-analyze).
///
/// MR_RUNS_ON(ctx) declares the execution context a function is confined
/// to. Place it at the start of the declaration:
///
///   MR_RUNS_ON(managing) void Submit(TxnId id);
///
/// Vocabulary:
///   managing - the managing site's execution context (ManagingSite,
///              SubmitWindow, and everything confined to coordinator state).
///   loop     - a site's event-loop context (Site and the protocol engine).
///   client   - caller/driver threads and dedicated IO threads; blocking is
///              permitted, touching loop-/managing-confined state is not
///              (marshal through EventLoop::Post / PostAndWait instead).
///   any      - callable from every context; must itself stay confinement-
///              and blocking-clean.
///
/// miniraid-analyze verifies by call-graph reachability that a function
/// annotated for one context never reaches a function confined to another,
/// that no blocking call is reachable from managing/loop/any entry points,
/// and that every public method of an annotated class carries a context.
/// The macro compiles away on every compiler; the analyzer reads its token.
/// ---------------------------------------------------------------------------
#define MR_RUNS_ON(ctx)

/// Field-level confinement waiver for the shared-state pass
/// (docs/ANALYSIS.md §9). Declares that a field, although reachable from
/// more than one execution context in the call graph, is only ever
/// *dynamically* touched from the named context — the cross-context paths
/// are phase-separated (e.g. configured before threads start, or only the
/// client context drives the simulation). Place it on the field:
///
///   std::vector<Event> trace_ MR_CONTEXT_CONFINED(client);
///
/// The waiver is an auditable claim, not an enforcement: each use must
/// carry a comment at the field explaining why the phases cannot overlap.
/// Prefer MR_GUARDED_BY when a mutex exists. Compiles away, like
/// MR_RUNS_ON.
#define MR_CONTEXT_CONFINED(ctx)

#endif  // MINIRAID_COMMON_THREAD_ANNOTATIONS_H_
