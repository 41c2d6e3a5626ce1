// hostprof: a sampling host profiler loaded with LD_PRELOAD (scripts/
// hostprof.sh). With HOSTPROF_DIR set it records one backtrace per
// millisecond of process CPU time (in practice per kernel tick) and at exit
// writes them with /proc/self/maps to $HOSTPROF_DIR/<pid>.prof for
// scripts/hostprof_report.py. The timer is a POSIX CPU-time timer, not
// ITIMER_PROF: an itimer survives execve and its SIGPROF would kill the
// exec'd program before this library's constructor installs the handler.
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <unistd.h>

enum { kDepth = 128, kSkip = 2, kCap = 1 << 21 };  // skip handler + trampoline
static void* samples[kCap];  // [n, frame 0 .. frame n-1] per sample
static size_t used;
static timer_t timer;

static void on_tick(int sig) {
  (void)sig;
  void* frames[kDepth];
  int n = backtrace(frames, kDepth) - kSkip;
  if (n <= 0 || used + n + 1 > kCap) return;
  samples[used++] = (void*)(size_t)n;
  for (int i = 0; i < n; ++i) samples[used++] = frames[i + kSkip];
}

__attribute__((constructor)) static void start(void) {
  if (!getenv("HOSTPROF_DIR")) return;
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder outside the signal handler
  struct sigaction sa = {.sa_handler = on_tick, .sa_flags = SA_RESTART};
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
  struct itimerspec every_ms = {{0, 1000000}, {0, 1000000}};
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) == 0)
    timer_settime(timer, 0, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
  const char* dir = getenv("HOSTPROF_DIR");
  if (!dir) return;
  timer_delete(timer);
  char path[4096], line[4096];
  snprintf(path, sizeof path, "%s/%d.prof", dir, (int)getpid());
  FILE* out = fopen(path, "w");
  FILE* maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  ssize_t len = readlink("/proc/self/exe", line, sizeof line - 1);
  fprintf(out, "exe %.*s\n", (int)(len > 0 ? len : 0), line);
  while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
  for (size_t i = 0; i < used; i += 1 + (size_t)samples[i]) {
    fputs("s", out);
    for (size_t j = 1; j <= (size_t)samples[i]; ++j)
      fprintf(out, " %lx", (unsigned long)samples[i + j]);
    fputs("\n", out);
  }
  fclose(maps);
  fclose(out);
}
