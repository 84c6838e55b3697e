(** Stack-allocation-heavy workloads for the stack-sanitizer ablation.

    PolyBench keeps its data on the heap, so Algorithm 1 has nothing to
    decide there. These programs exercise the interesting cases: local
    buffers indexed only by constants (safe — never instrumented),
    dynamically indexed buffers (unsafe GEP), buffers whose address
    escapes into callees, and hot small frames where blanket
    instrumentation hurts. *)

type program = { s_name : string; s_source : string }

let programs : program list =
  [
    {
      s_name = "const-index";
      (* all indices statically in bounds: Algorithm 1 instruments 0 *)
      s_source =
        {|
          int rotate(int x) {
            int tmp[4];
            tmp[0] = x; tmp[1] = x + 1; tmp[2] = x + 2; tmp[3] = x + 3;
            return tmp[0] + tmp[3];
          }
          int main() {
            int s = 0;
            for (int i = 0; i < 20000; i++) { s += rotate(i); }
            return s % 65536;
          }
        |};
    };
    {
      s_name = "dyn-index";
      (* dynamic indexing: the buffer must be instrumented *)
      s_source =
        {|
          int histogram(int seed) {
            int bins[16];
            for (int i = 0; i < 16; i++) { bins[i] = 0; }
            int x = seed;
            for (int i = 0; i < 32; i++) {
              x = (x * 1103515245 + 12345) & 0x7fffffff;
              bins[x % 16] += 1;
            }
            int best = 0;
            for (int i = 0; i < 16; i++) {
              if (bins[i] > best) { best = bins[i]; }
            }
            return best;
          }
          int main() {
            int s = 0;
            for (int i = 0; i < 2000; i++) { s += histogram(i); }
            return s % 65536;
          }
        |};
    };
    {
      s_name = "escaping";
      (* the buffer address is passed to a callee: escapes *)
      s_source =
        {|
          void fill(int *dst, int n, int seed) {
            for (int i = 0; i < n; i++) { dst[i] = seed + i; }
          }
          int reduce(int *src, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += src[i]; }
            return s;
          }
          int main() {
            int total = 0;
            for (int rep = 0; rep < 2000; rep++) {
              int buf[8];
              fill(buf, 8, rep);
              total += reduce(buf, 8);
            }
            return total % 65536;
          }
        |};
    };
    {
      s_name = "mixed-frames";
      (* one safe and one unsafe slot per frame: tests the guard-slot
         decision and per-slot selectivity *)
      s_source =
        {|
          int work(int seed) {
            int safe[2];
            int risky[8];
            safe[0] = seed; safe[1] = seed * 2;
            for (int i = 0; i < 8; i++) { risky[i] = 0; }
            int x = seed;
            for (int i = 0; i < 16; i++) {
              x = (x * 75 + 74) % 65537;
              risky[x % 8] += 1;
            }
            return safe[0] + safe[1] + risky[seed % 8];
          }
          int main() {
            int s = 0;
            for (int i = 0; i < 3000; i++) { s += work(i); }
            return s % 65536;
          }
        |};
    };
    {
      s_name = "string-stack";
      (* byte buffers + libc string routines on the stack *)
      s_source =
        {|
          int render(int id) {
            char name[24];
            char buf[40];
            name[0] = (char)(65 + id % 26);
            name[1] = 0;
            strcpy(buf, "item-");
            long n = strlen(buf);
            strcpy(buf + n, name);
            return (int)strlen(buf);
          }
          int main() {
            int s = 0;
            for (int i = 0; i < 3000; i++) { s += render(i); }
            return s % 65536;
          }
        |};
    };
    {
      s_name = "deep-recursion";
      (* many small live frames at once *)
      s_source =
        {|
          int descend(int depth, int seed) {
            int scratch[4];
            scratch[0] = seed;
            scratch[1] = seed ^ depth;
            scratch[2] = 0; scratch[3] = 0;
            if (depth == 0) { return scratch[0] + scratch[1]; }
            scratch[2] = descend(depth - 1, seed + 1);
            return scratch[1] + scratch[2];
          }
          int main() {
            int s = 0;
            for (int i = 0; i < 300; i++) { s += descend(40, i); }
            return s % 65536;
          }
        |};
    };
  ]

let dead_buffer : program =
  {
    s_name = "dead-buffer";
    (* a scratch buffer the optimiser deletes entirely: running the
       sanitizer before optimisation (the §6.1 ordering ablation)
       instruments a slot that should not even exist *)
    s_source =
      {|
        int work(int seed) {
          int scratch[32];
          for (int i = 0; i < 32; i++) { scratch[i] = seed + i; }
          if (0) { return scratch[seed % 32]; }  /* never taken */
          return seed * 3;
        }
        int main() {
          int s = 0;
          for (int i = 0; i < 5000; i++) { s += work(i); }
          return s % 65536;
        }
      |};
  }

let programs = programs @ [ dead_buffer ]
