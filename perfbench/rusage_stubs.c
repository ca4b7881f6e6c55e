/* What OCaml's Unix library does not expose: a monotonic clock, and
   peak resident set sizes, the benchmark's own (getrusage) and a
   reaped child's (wait4). */

#include <errno.h>
#include <time.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* CLOCK_MONOTONIC, in seconds. */
value perfbench_monotonic(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* ru_maxrss of this process, in KiB. */
value perfbench_self_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}

/* Block until [pid] exits; returns (exit code or -signal, ru_maxrss KiB). */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  struct rusage ru;
  int status = 0;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(2);
  if (WIFEXITED(status))
    Store_field(res, 0, Val_int(WEXITSTATUS(status)));
  else if (WIFSIGNALED(status))
    Store_field(res, 0, Val_int(-WTERMSIG(status)));
  else
    Store_field(res, 0, Val_int(-1));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
