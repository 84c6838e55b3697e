(* End-to-end tests for the MiniC toolchain: source is compiled by our
   own pipeline, instantiated in the wasm interpreter, and executed.
   Each test compiles under at least the baseline wasm64 configuration;
   several also check wasm32 and the hardened configurations. *)

let ret ?cfg ?entry ?(args = []) src =
  Libc.Run.ret_i32 (Libc.Run.run ?cfg ?entry ~args src)

let check_ret ?cfg ?entry ?args name expect src =
  Alcotest.(check int32) name expect (ret ?cfg ?entry ?args src)

let check_out name expect src =
  let r = Libc.Run.run src in
  Alcotest.(check string) name expect r.Libc.Run.output

let expect_trap ~substring f =
  match f () with
  | (_ : int32) -> Alcotest.failf "expected trap mentioning %S" substring
  | exception Wasm.Instance.Trap msg ->
      if not (Astring.String.is_infix ~affix:substring msg) then
        Alcotest.failf "trap %S does not mention %S" msg substring

(* ------------------------------------------------------------------ *)
(* Arithmetic & control flow                                           *)
(* ------------------------------------------------------------------ *)

let test_return_const () =
  check_ret "constant" 42l "int main() { return 42; }"

let test_precedence () =
  check_ret "precedence" 14l "int main() { return 2 + 3 * 4; }";
  check_ret "parens" 20l "int main() { return (2 + 3) * 4; }";
  check_ret "mixed" 7l "int main() { return 1 + 2 * 3 % 4 + 2 * 2; }"

let test_division_signs () =
  check_ret "signed div" (-3l) "int main() { return -7 / 2; }";
  check_ret "signed rem" (-1l) "int main() { return -7 % 2; }";
  check_ret "unsigned div" 2147483641l
    "int main() { unsigned int x = 4294967283; return (int)(x / 2); }"

let test_bitops () =
  check_ret "and or xor" 14l
    "int main() { return (12 & 10) | (12 ^ 10); }";
  check_ret "shifts" 24l "int main() { return (3 << 4) >> 1; }";
  check_ret "bnot" (-1l) "int main() { return ~0; }"

let test_comparisons () =
  check_ret "lt" 1l "int main() { return 3 < 4; }";
  check_ret "unsigned compare" 1l
    "int main() { unsigned int big = 4294967295; return big > 5u; }";
  check_ret "logical ops" 1l "int main() { return (1 && 0) || (2 > 1); }"

let test_short_circuit () =
  (* the second operand must not run when the first decides *)
  check_ret "short circuit" 5l
    {|
      int g = 0;
      int bump() { g = g + 1; return 1; }
      int main() {
        int a = 0 && bump();
        int b = 1 || bump();
        if (g != 0) { return 99; }
        return 5 * (a + b);
      }
    |}

let test_if_else_chain () =
  check_ret "else if" 2l
    {|
      int classify(int x) {
        if (x < 0) { return 0; }
        else if (x == 0) { return 1; }
        else { return 2; }
      }
      int main() { return classify(17); }
    |}

let test_while_loop () =
  check_ret "sum 1..10" 55l
    {|
      int main() {
        int i = 1; int s = 0;
        while (i <= 10) { s += i; i++; }
        return s;
      }
    |}

let test_for_loop () =
  check_ret "for" 45l
    {|
      int main() {
        int s = 0;
        for (int i = 0; i < 10; i++) { s += i; }
        return s;
      }
    |}

let test_do_while () =
  check_ret "do-while runs once" 1l
    {|
      int main() {
        int n = 0;
        do { n++; } while (n < 0);
        return n;
      }
    |}

let test_break_continue () =
  check_ret "break/continue" 25l
    {|
      int main() {
        int s = 0;
        for (int i = 0; i < 100; i++) {
          if (i % 2 == 0) { continue; }
          if (i >= 10) { break; }
          s += i;
        }
        return s;
      }
    |}

let test_nested_loops () =
  check_ret "nested" 100l
    {|
      int main() {
        int c = 0;
        for (int i = 0; i < 10; i++)
          for (int j = 0; j < 10; j++)
            c++;
        return c;
      }
    |}

let test_ternary () =
  check_ret "ternary" 7l "int main() { int x = 3; return x > 2 ? 7 : 9; }"

let test_recursion () =
  check_ret "fib" 55l
    {|
      int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
      int main() { return fib(10); }
    |}

let test_switch_dense () =
  (* dense case values lower to a single br_table *)
  check_ret "switch dense" 305l
    {|
      int classify(int x) {
        switch (x) {
          case 0: return 100;
          case 1: return 200;
          case 2: { int y = x * 3; return y; }
          default: return -1;
        }
      }
      int main() { return classify(0) + classify(1) + classify(2) + classify(9); }
    |}

let test_switch_sparse () =
  (* sparse values lower to a compare chain *)
  check_ret "switch sparse" 1230l
    {|
      int f(int x) {
        switch (x) {
          case 10: return 1;
          case 1000: return 2;
          case -5: return 3;
          default: return 0;
        }
      }
      int main() { return f(10) * 1000 + f(1000) * 100 + f(-5) * 10 + f(7); }
    |}

let test_switch_break_and_default () =
  (* MiniC switch: implicit break between cases; explicit break exits
     the switch, break in an enclosing loop still targets the loop *)
  check_ret "switch break" 212l
    {|
      int main() {
        int total = 0;
        for (int i = 0; i < 6; i++) {
          switch (i % 3) {
            case 0: total += 1;
            case 1: { if (i > 2) { break; } total += 10; }
            default: total += 100;
          }
        }
        return total;
      }
    |}

let test_switch_no_default () =
  check_ret "switch without default" 7l
    {|
      int main() {
        int r = 7;
        switch (3) {
          case 1: r = 1;
          case 2: r = 2;
        }
        return r;
      }
    |}

let test_switch_on_long () =
  check_ret "switch on long scrutinee" 2l
    {|
      int main() {
        long big = 5000000000;
        switch (big - 4999999999) {
          case 0: return 1;
          case 1: return 2;
          default: return 3;
        }
      }
    |}

let test_switch_uses_br_table () =
  (* the dense lowering must actually emit a br_table *)
  let src =
    {|
      int pick(int x) {
        switch (x) {
          case 0: return 5;
          case 1: return 6;
          case 2: return 7;
          case 3: return 8;
          default: return 0;
        }
      }
      int main() { return pick(2); }
    |}
  in
  let c = Minic.Driver.compile src in
  let rec has_br_table (instrs : Wasm.Ast.instr list) =
    List.exists
      (function
        | Wasm.Ast.BrTable _ -> true
        | Wasm.Ast.Block (_, b) | Wasm.Ast.Loop (_, b) -> has_br_table b
        | Wasm.Ast.If (_, a, b) -> has_br_table a || has_br_table b
        | _ -> false)
      instrs
  in
  Alcotest.(check bool) "br_table emitted" true
    (List.exists
       (fun (f : Wasm.Ast.func) -> has_br_table f.body)
       c.Minic.Driver.co_module.Wasm.Ast.funcs)

let test_mutual_recursion () =
  check_ret "even/odd" 1l
    {|
      int is_odd(int n);
      int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
      int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
      int main() { return is_even(42); }
    |}

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_long_arith () =
  check_ret "64-bit" 1l
    {|
      int main() {
        long big = 4000000000;
        long sq = big * 2;
        return sq == 8000000000 ? 1 : 0;
      }
    |};
  check_ret "largest long literal" 807l
    "int main() { long x = 9223372036854775807; return (int)(x % 1000); }";
  check_ret "18-digit literal" 999l
    "int main() { long x = 999999999999999999; return (int)(x % 1000); }"

let test_char_type () =
  check_ret "char wraps" 44l
    "int main() { char c = 300; return c; }"

let test_float_double () =
  check_ret "double arith" 6l
    "int main() { double x = 2.5; double y = 0.1; return (int)((x + y) * 2.31); }";
  check_ret "float demote" 1l
    {|
      int main() {
        float f = 0.1f;
        double d = 0.1;
        return (double)f != d;  /* f32 rounding is visible */
      }
    |}

let test_int_float_conversions () =
  check_ret "conversions" 3l
    "int main() { int i = 7; double d = i; return (int)(d / 2.0); }"

let test_casts () =
  check_ret "narrowing" 56l
    "int main() { long x = 0x1234567890abc138; return (char)x; }"

let test_sizeof () =
  check_ret "sizeof" 29l
    {|
      struct Pair { int a; long b; };
      int main() {
        return (int)(sizeof(int) + sizeof(long) + sizeof(char)
                     + sizeof(struct Pair));  /* 4+8+1+16 */
      }
    |}

let test_globals () =
  check_ret "globals" 30l
    {|
      int counter = 10;
      long offset = 20;
      int main() { counter += (int)offset; return counter; }
    |}

let test_global_array () =
  check_ret "global array" 6l
    {|
      int table[4] = {1, 2, 3};
      int main() { return table[0] + table[1] + table[2] + table[3]; }
    |}

(* ------------------------------------------------------------------ *)
(* Arrays, pointers, structs                                           *)
(* ------------------------------------------------------------------ *)

let test_local_array () =
  check_ret "array sum" 40l
    {|
      int main() {
        int a[4];
        for (int i = 0; i < 4; i++) { a[i] = (i + 1) * 4; }
        int s = 0;
        for (int i = 0; i < 4; i++) { s += a[i]; }
        return s;
      }
    |}

let test_matrix_2d () =
  check_ret "2d array" 210l
    {|
      int main() {
        int m[4][5];
        for (int i = 0; i < 4; i++)
          for (int j = 0; j < 5; j++)
            m[i][j] = i * 5 + j;
        int s = 0;
        for (int i = 0; i < 4; i++)
          for (int j = 0; j < 5; j++)
            s += m[i][j] + 1;
        return s;   /* sum 0..19 plus 20 ones = 210 */
      }
    |}

let test_pointers_basic () =
  check_ret "deref write" 99l
    {|
      int main() {
        int x = 1;
        int *p = &x;
        *p = 99;
        return x;
      }
    |}

let test_pointer_arith () =
  check_ret "pointer walk" 10l
    {|
      int main() {
        int a[4];
        a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
        int *p = a;
        int s = 0;
        for (int i = 0; i < 4; i++) { s += *p; p++; }
        return s;
      }
    |}

let test_pointer_diff () =
  check_ret "pointer difference" 3l
    {|
      int main() {
        long a[8];
        long *p = &a[5];
        long *q = &a[2];
        return (int)(p - q);
      }
    |}

let test_array_param () =
  check_ret "array parameter decays" 15l
    {|
      int sum(int *v, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) { s += v[i]; }
        return s;
      }
      int main() {
        int a[5];
        for (int i = 0; i < 5; i++) { a[i] = i + 1; }
        return sum(a, 5);
      }
    |}

let test_out_param () =
  check_ret "output parameter" 22l
    {|
      void divmod(int a, int b, int *q, int *r) { *q = a / b; *r = a % b; }
      int main() {
        int q; int r;
        divmod(43, 2, &q, &r);
        return q + r
          ;
      }
    |}

let test_struct_members () =
  check_ret "struct fields" 30l
    {|
      struct Point { int x; int y; };
      int main() {
        struct Point p;
        p.x = 10;
        p.y = 20;
        return p.x + p.y;
      }
    |}

let test_struct_pointer () =
  check_ret "struct via pointer" 11l
    {|
      struct Node { long value; struct Node *next; };
      int main() {
        struct Node a;
        struct Node b;
        a.value = 4;
        a.next = &b;
        b.value = 7;
        b.next = (struct Node *)0;
        return (int)(a.value + a.next->value);
      }
    |}

let test_struct_initializer () =
  check_ret "designated init" 12l
    {|
      struct Config { int width; int height; long flags; };
      int main() {
        struct Config c = {.width = 3, .height = 4, .flags = 0};
        return c.width * c.height;
      }
    |}

let test_linked_list_heap () =
  check_ret "heap linked list" 10l
    {|
      struct Cell { long v; struct Cell *next; };
      int main() {
        struct Cell *head = (struct Cell *)0;
        for (int i = 1; i <= 4; i++) {
          struct Cell *c = (struct Cell *)malloc(sizeof(struct Cell));
          c->v = i;
          c->next = head;
          head = c;
        }
        long s = 0;
        while (head != (struct Cell *)0) {
          s += head->v;
          struct Cell *dead = head;
          head = head->next;
          free(dead);
        }
        return (int)s;
      }
    |}

(* ------------------------------------------------------------------ *)
(* Function pointers                                                   *)
(* ------------------------------------------------------------------ *)

let test_function_pointer_call () =
  check_ret "fn ptr" 9l
    {|
      int add2(int x) { return x + 2; }
      int main() {
        int (*f)(int) = add2;
        return f(7);
      }
    |}

let test_function_pointer_select () =
  check_ret "fn ptr dispatch" 12l
    {|
      int twice(int x) { return x * 2; }
      int thrice(int x) { return x * 3; }
      int apply(int (*op)(int), int v) { return op(v); }
      int main() { return apply(twice, 3) + apply(thrice, 2); }
    |}

let test_vtable_struct () =
  (* Listing 1's shape: a struct of function pointers *)
  check_ret "vtable" 21l
    {|
      long foo() { return 20; }
      long bar() { return 1; }
      struct VTable { long (*f)(); long (*g)(); };
      int main() {
        struct VTable v = {.f = foo, .g = bar};
        return (int)(v.f() + v.g());
      }
    |}

(* ------------------------------------------------------------------ *)
(* libc                                                                *)
(* ------------------------------------------------------------------ *)

let test_malloc_free_reuse () =
  check_ret "allocator reuses freed chunk" 1l
    {|
      int main() {
        char *a = (char *)malloc(64);
        long addr_a = (long)a & 0xffffffffffff;
        free(a);
        char *b = (char *)malloc(64);
        long addr_b = (long)b & 0xffffffffffff;
        return addr_a == addr_b;
      }
    |}

let test_malloc_zeroed () =
  check_ret "calloc zero" 0l
    {|
      int main() {
        int *p = (int *)calloc(16, 4);
        int s = 0;
        for (int i = 0; i < 16; i++) { s += p[i]; }
        return s;
      }
    |}

let test_realloc_preserves () =
  check_ret "realloc" 55l
    {|
      int main() {
        int *p = (int *)malloc(10 * 4);
        for (int i = 0; i < 10; i++) { p[i] = i + 1; }
        p = (int *)realloc(p, 40 * 4);
        int s = 0;
        for (int i = 0; i < 10; i++) { s += p[i]; }
        return s;
      }
    |}

let test_strings () =
  check_ret "strlen/strcpy/strcmp" 1l
    {|
      int main() {
        char buf[32];
        strcpy(buf, "hello world");
        if (strlen(buf) != 11) { return 0; }
        if (strcmp(buf, "hello world") != 0) { return 0; }
        return 1;
      }
    |}

let test_print_output () =
  check_out "print functions" "7\nhi\n"
    {|
      int main() {
        print_i64(7);
        print_str("hi");
        return 0;
      }
    |}

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)
(* ------------------------------------------------------------------ *)

let poly_kernel = {|
      int main() {
        double a[6][6]; double b[6][6]; double c[6][6];
        for (int i = 0; i < 6; i++)
          for (int j = 0; j < 6; j++) {
            a[i][j] = (double)(i + j) / 3.0;
            b[i][j] = (double)(i - j) / 7.0;
            c[i][j] = 0.0;
          }
        for (int i = 0; i < 6; i++)
          for (int k = 0; k < 6; k++)
            for (int j = 0; j < 6; j++)
              c[i][j] += a[i][k] * b[k][j];
        double sum = 0.0;
        for (int i = 0; i < 6; i++)
          for (int j = 0; j < 6; j++)
            sum += c[i][j];
        return (int)(sum * 100.0);
      }
    |}

let test_all_configs_agree () =
  (* the same program must compute the same value under every Table 3
     configuration — the differential test of Fig. 14's methodology *)
  let results =
    List.map
      (fun cfg -> (cfg.Cage.Config.name, ret ~cfg poly_kernel))
      Cage.Config.table3
  in
  match results with
  | (_, first) :: rest ->
      List.iter
        (fun (name, v) ->
          Alcotest.(check int32) (name ^ " agrees") first v)
        rest
  | [] -> Alcotest.fail "no configurations"

let test_wasm32_pointers () =
  check_ret ~cfg:Cage.Config.baseline_wasm32 "wasm32 pointers" 10l
    {|
      int main() {
        int a[4];
        a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
        int *p = a;
        return p[0] + p[1] + p[2] + p[3];
      }
    |}

(* ------------------------------------------------------------------ *)
(* Memory-safety behaviour under the Cage configurations               *)
(* ------------------------------------------------------------------ *)

let heap_overflow_prog = {|
      int main() {
        char *buf = (char *)malloc(16);
        /* write one past the end: lands in the next chunk's header */
        buf[16] = 65;
        return buf[16];
      }
    |}

let test_heap_overflow_caught () =
  (* baseline lets it corrupt memory silently *)
  Alcotest.(check int32) "baseline misses it" 65l
    (ret ~cfg:Cage.Config.baseline_wasm64 heap_overflow_prog);
  (* the hardened allocator's segment catches it *)
  expect_trap ~substring:"tag fault" (fun () ->
      ret ~cfg:Cage.Config.mem_safety heap_overflow_prog)

let heap_uaf_prog = {|
      int main() {
        long *p = (long *)malloc(32);
        p[0] = 77;
        free(p);
        return (int)p[0];   /* use after free */
      }
    |}

let test_heap_uaf_caught () =
  Alcotest.(check int32) "baseline misses UAF" 77l
    (ret ~cfg:Cage.Config.baseline_wasm64 heap_uaf_prog);
  expect_trap ~substring:"tag fault" (fun () ->
      ret ~cfg:Cage.Config.mem_safety heap_uaf_prog)

let double_free_prog = {|
      int main() {
        char *p = (char *)malloc(48);
        free(p);
        free(p);
        return 0;
      }
    |}

let test_double_free_caught () =
  expect_trap ~substring:"double free" (fun () ->
      ret ~cfg:Cage.Config.mem_safety double_free_prog)

let stack_overflow_prog = {|
      void fill(char *dst, int n) {
        for (int i = 0; i < n; i++) { dst[i] = 66; }
      }
      int main() {
        char small[16];
        char big[16];
        fill(big, 16);
        fill(small, 20);   /* four bytes past the end */
        return small[0];
      }
    |}

let test_stack_overflow_caught () =
  Alcotest.(check int32) "baseline misses stack smash" 66l
    (ret ~cfg:Cage.Config.baseline_wasm64 stack_overflow_prog);
  expect_trap ~substring:"tag fault" (fun () ->
      ret ~cfg:Cage.Config.mem_safety stack_overflow_prog)

let test_safe_stack_not_instrumented () =
  (* constant, in-bounds indexing only: Algorithm 1 leaves it alone *)
  let src =
    {|
      int main() {
        int a[4];
        a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
        return a[0] + a[3];
      }
    |}
  in
  let opts =
    { (Minic.Driver.options_of_config Cage.Config.mem_safety) with
      Minic.Driver.memsafety = true }
  in
  let c = Minic.Driver.compile ~opts src in
  Alcotest.(check int) "no slots instrumented" 0
    c.Minic.Driver.co_sanitizer.Minic.Stack_sanitizer.instrumented

let test_unsafe_stack_instrumented () =
  let src =
    {|
      int get(int i) {
        int a[4];
        a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
        return a[i];
      }
      int main() { return get(2); }
    |}
  in
  let opts = Minic.Driver.options_of_config Cage.Config.mem_safety in
  let c = Minic.Driver.compile ~opts src in
  Alcotest.(check int) "dynamic index instrumented" 1
    c.Minic.Driver.co_sanitizer.Minic.Stack_sanitizer.instrumented

(* Escape-analysis corner cases: every way of laundering a slot address
   out of direct addressing position must mark the slot as escaping —
   missing any of these would leave a reachable stack slot untagged. *)

let escaping_of src =
  let opts = Minic.Driver.options_of_config Cage.Config.mem_safety in
  let c = Minic.Driver.compile ~opts src in
  c.Minic.Driver.co_sanitizer.Minic.Stack_sanitizer.escaping

let test_escape_cvt_laundering () =
  (* the address round-trips through an int: the Cvt chain must reset
     the "safe addressing context" flag even though the final use is a
     load address *)
  let src =
    {|
      long f() {
        long a[2];
        a[0] = 5;
        return *(long*)(long)(int)(long)&a[0];
      }
      int main() { return (int)f(); }
    |}
  in
  Alcotest.(check int) "cast-laundered address escapes" 1 (escaping_of src)

let test_escape_store_reload () =
  (* the address is written to memory and reloaded; the reload is
     untrackable, so the store itself must count as an escape *)
  let src =
    {|
      int g() {
        int a[2];
        int *save[1];
        save[0] = &a[0];
        int *p = save[0];
        *p = 3;
        return a[0];
      }
      int main() { return g(); }
    |}
  in
  Alcotest.(check int) "stored-then-reloaded address escapes" 1
    (escaping_of src)

let test_escape_arith_mixed () =
  (* address + offset materialised as a plain value (not under a
     load/store) and dereferenced later *)
  let src =
    {|
      int h() {
        long a[4];
        a[1] = 7;
        long v = (long)&a[0] + 8;
        return (int)*(long*)v;
      }
      int main() { return h(); }
    |}
  in
  Alcotest.(check int) "arithmetic-mixed address escapes" 1 (escaping_of src)

let test_instrument_all_ablation () =
  let src =
    {|
      int main() {
        int a[4];
        a[0] = 1;
        int b[4];
        b[1] = 2;
        return a[0] + b[1];
      }
    |}
  in
  let base = Minic.Driver.options_of_config Cage.Config.mem_safety in
  let selective = Minic.Driver.compile ~opts:base src in
  let all =
    Minic.Driver.compile
      ~opts:{ base with Minic.Driver.instrument_all = true }
      src
  in
  Alcotest.(check int) "selective instruments nothing" 0
    selective.Minic.Driver.co_sanitizer.Minic.Stack_sanitizer.instrumented;
  Alcotest.(check int) "ablation instruments everything" 2
    all.Minic.Driver.co_sanitizer.Minic.Stack_sanitizer.instrumented

let test_pauth_config_runs () =
  check_ret ~cfg:Cage.Config.ptr_auth "fn ptrs under pauth" 12l
    {|
      int twice(int x) { return x * 2; }
      int apply(int (*op)(int), int v) { return op(v); }
      int main() { return apply(twice, 6); }
    |}

let test_full_cage_runs_everything () =
  check_ret ~cfg:Cage.Config.full "full CAGE end-to-end" 10l
    {|
      int sq(int x) { return x * x; }
      int main() {
        int (*f)(int) = sq;
        int *heap = (int *)malloc(4 * 4);
        for (int i = 0; i < 4; i++) { heap[i] = f(i); }
        int s = 0;
        for (int i = 0; i < 4; i++) { s += heap[i]; }
        free(heap);
        return s - 4;
      }
    |}

(* ------------------------------------------------------------------ *)
(* Front-end error reporting                                           *)
(* ------------------------------------------------------------------ *)

let expect_compile_error ~substring src =
  match Libc.Run.run src with
  | (_ : Libc.Run.result) ->
      Alcotest.failf "expected compile error mentioning %S" substring
  | exception Minic.Driver.Compile_error msg ->
      if not (Astring.String.is_infix ~affix:substring msg) then
        Alcotest.failf "error %S does not mention %S" msg substring

let test_error_unknown_identifier () =
  expect_compile_error ~substring:"unknown identifier"
    "int main() { return nope; }"

let test_error_call_arity () =
  expect_compile_error ~substring:"expects 2 arguments"
    "int add(int a, int b) { return a + b; } int main() { return add(1); }"

let test_error_void_value () =
  expect_compile_error ~substring:"returning a value from void"
    "void f() { return 3; } int main() { return 0; }"

let test_error_missing_return_value () =
  expect_compile_error ~substring:"missing return value"
    "int main() { return; }"

let test_error_bad_member () =
  expect_compile_error ~substring:"no member"
    {|
      struct P { int x; };
      int main() { struct P p; p.x = 1; return p.y; }
    |}

let test_error_duplicate_case () =
  expect_compile_error ~substring:"duplicate case"
    {|
      int main() {
        switch (1) { case 3: return 1; case 3: return 2; }
        return 0;
      }
    |}

let test_error_nonconst_array_size () =
  match Libc.Run.run "int main() { int n = 4; int a[n]; return 0; }" with
  | (_ : Libc.Run.result) -> Alcotest.fail "VLA accepted"
  | exception Minic.Driver.Compile_error _ -> ()

let test_error_unknown_struct () =
  expect_compile_error ~substring:"unknown struct"
    "int main() { struct Nope x; return 0; }"

let test_error_addr_of_rvalue () =
  expect_compile_error ~substring:"not an lvalue"
    "int main() { int *p = &(1 + 2); return 0; }"

let test_error_located_line () =
  (* each error sits on the source's line 3 and is reported there,
     whether or not the libc prelude is prepended; an error inside the
     prelude names the prelude's line. The type errors include a size
     asked of [void], of an unknown struct, of a [void] struct field and
     of a [void] global. *)
  let in_main line3 = "int main() {\n  int x = 1;\n" ^ line3 ^ "\n}" in
  let check how compile kind src want =
    match compile src with
    | () -> Alcotest.failf "%s %s error: compiled" how kind
    | exception Minic.Driver.Compile_error msg ->
        if not (Astring.String.is_prefix ~affix:want msg) then
          Alcotest.failf "%s: %S does not start with %S" how msg want
  in
  List.iter
    (fun (kind, src) ->
      let want = kind ^ " error (line 3)" in
      check "with the prelude" (fun s -> ignore (Libc.Run.run s)) kind src
        want;
      check "without a prelude" (fun s -> ignore (Minic.Driver.compile s))
        kind src want)
    [ ("lex", in_main "  return x @ 2;"); ("parse", in_main "  return x + ;");
      ("type", in_main "  return nope;");
      ("type", in_main "  return sizeof(void);");
      ("type", in_main "  return sizeof(struct nope);");
      ("type", "int a;\nint b;\nstruct s { void v; };\nint main() { }");
      ("type", "int a;\nint b;\nvoid g;\nint main() { }") ];
  check "in the prelude"
    (fun s ->
      ignore (Minic.Driver.compile ~prelude:"int f() {\n  return nope;\n}" s))
    "type" (in_main "  return x;") "type error (prelude line 2)"

(* A parse error more than two tokens before a lex error is reported
   first: the parser sees tokens as the lexer produces them. *)
let test_error_order () =
  expect_compile_error ~substring:"parse error"
    "int main() { return 1 + ; x y z @ }";
  expect_compile_error ~substring:"lex error" "int main() { return 1 + @ }"

(* A second definition of a function or global is an error wherever
   the first one is, in the libc or in the program; accepted, a
   program's [strlen] would compile to a second [strlen] function and
   export while calls bound the libc's, and [long __brk = 5;] would move
   the allocator's break into the program's storage. A definition may
   still satisfy an [extern], with the type it was declared with. *)
let test_error_redefinition () =
  let libc = Libc.Source.prelude_of_config Cage.Config.baseline_wasm64 in
  let expect ~prelude src want =
    match Minic.Driver.compile ~prelude src with
    | _ -> Alcotest.failf "compiled %S" src
    | exception Minic.Driver.Compile_error msg ->
        Alcotest.(check string) src want msg
  in
  expect ~prelude:libc
    "int main() { return (int)strlen(\"x\"); }\n\
     unsigned long strlen(char *s) { return 42; }"
    "type error (line 2): redefinition of strlen";
  expect ~prelude:libc "long __brk = 5;\nint main() { return 0; }"
    "type error (line 1): redefinition of __brk";
  expect ~prelude:libc "int print_i64(int v) { return v; }"
    "type error (line 1): conflicting types for print_i64";
  expect ~prelude:""
    "int f() { return 1; }\nint f() { return 2; }\nint main() { return f(); }"
    "type error (line 2): redefinition of f";
  expect ~prelude:"" "long g;\nlong g;\nint main() { return 0; }"
    "type error (line 2): redefinition of g";
  expect ~prelude:"" "long g;\nint g() { return 0; }"
    "type error (line 2): redefinition of g";
  check_ret "a definition satisfies the libc's extern" 42l
    "long seen;\nvoid print_i64(long v) { seen = v; }\n\
     int main() { print_i64(42); return (int)seen; }"

(* Sources the driver must reject with a [Compile_error] naming the
   fault: (case, substring of the message, source). The literals and
   the divisions by zero used to escape as [Failure] or
   [Division_by_zero]. The arrays used to compile, with [a] overlapping
   [b] ([a[0] = 5] overwrote [b[0]]), and [1 << 66] used to match 4,
   since [Int64.shift_left] by 66 is unspecified. *)
let rejected_sources =
  [ ("20-digit literal", "invalid integer literal",
     "int main() { long x = 99999999999999999999; return 0; }");
    ("19-digit literal overflow", "invalid integer literal",
     "int main() { long x = 9223372036854775808; return 0; }");
    ("empty hex literal", "invalid integer literal",
     "int main() { return 0x; }");
    ("float without exponent digits", "invalid float literal",
     "int main() { double d = 1e; return 0; }");
    ("array size divides by zero", "constant division by zero",
     "int a[1/0]; int main() { return 0; }");
    ("case label divides by zero", "constant division by zero",
     "int main() { switch (1) { case 1/0: return 1; } return 0; }");
    ("negative array size", "array size -1 is not positive",
     "int a[-1]; int b[4]; int main() { b[0] = 7; a[0] = 5; return b[0]; }");
    ("zero array size", "array size 0 is not positive",
     "int a[0]; int b[4]; int main() { b[0] = 7; a[0] = 5; return b[0]; }");
    ("case label shift out of range", "shift count outside 0..63",
     "int main() { switch (4) { case 1 << 66: return 1; } return 0; }") ]

(* ------------------------------------------------------------------ *)
(* Front-end output, pinned                                            *)
(* ------------------------------------------------------------------ *)

let quickstart_source () =
  (* tests run from _build/default/test; walk up until the example is
     found so this works from the source tree too *)
  let rec find dir n =
    let p = Filename.concat dir "examples/quickstart.c" in
    if Sys.file_exists p then p
    else if n = 0 then Alcotest.fail "examples/quickstart.c not found"
    else find (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  In_channel.with_open_text (find Filename.current_dir_name 6)
    In_channel.input_all

let fuzzgen_sources () =
  List.init 200 (fun seed ->
      Workloads.Fuzzgen.render (Workloads.Fuzzgen.generate ~seed))

let polybench_sources () =
  List.map (fun k -> k.Workloads.Polybench.k_source) Workloads.Polybench.all

(* MD5 of the concatenated binaries of each corpus, one digest per
   Table 3 row in [Cage.Config.table3]'s order (baseline wasm32,
   baseline wasm64, Cage-mem-safety, Cage-ptr-auth, Cage-sandboxing,
   CAGE). A change anywhere from the lexer to the code generator that
   moves one output byte moves a digest. *)
let frontend_digests =
  [ ("polybench",
     [ "7a6c133f49729b8cdce45d6704d8cb8a"; "37f866be82312876d00d1193c3708e9e";
       "de09ea91a3a2f1bfd7f922e8242e5992"; "37f866be82312876d00d1193c3708e9e";
       "37f866be82312876d00d1193c3708e9e"; "de09ea91a3a2f1bfd7f922e8242e5992" ]);
    ("cve",
     [ "b5d53071f7250b445188006cfa6bb3b7"; "32d18c8ed695117984e5376007f59b5c";
       "24166fb5fa3e6b9be0d79543ff8fecfa"; "f457343468ac88371ce7f784e3b1d723";
       "32d18c8ed695117984e5376007f59b5c"; "fe8308d27df3e7dab2dbb06e49c385af" ]);
    ("fuzzgen 0-199",
     [ "0da994436e744223fbaaaeec7ddb053e"; "c344abe104afc02bf4cc0084cc310d11";
       "552b1730051758c99bb82022bc37c571"; "c344abe104afc02bf4cc0084cc310d11";
       "c344abe104afc02bf4cc0084cc310d11"; "552b1730051758c99bb82022bc37c571" ]);
    ("quickstart",
     [ "9a8caf27ad0e7e6a3b022fee086c8f7d"; "c850adf80c6d9a0eed7c341054a0c93a";
       "09daba2fa989e572a5ef9b6e8a60f8ed"; "c850adf80c6d9a0eed7c341054a0c93a";
       "c850adf80c6d9a0eed7c341054a0c93a"; "09daba2fa989e572a5ef9b6e8a60f8ed" ]);
    ("serving",
     [ "8d47f6ca387d483f65749fabf032f679"; "ee3814e20c5796d5889730565a3cb6f5";
       "40e6580acf51241cd626a6d7184fa455"; "ee3814e20c5796d5889730565a3cb6f5";
       "ee3814e20c5796d5889730565a3cb6f5"; "40e6580acf51241cd626a6d7184fa455" ]) ]

let frontend_corpora () =
  [ polybench_sources ();
    List.map (fun e -> e.Workloads.Cve_suite.source)
      Workloads.Cve_suite.entries;
    fuzzgen_sources ();
    [ quickstart_source () ];
    [ Harness.Serve_bench.compute_source;
      Harness.Serve_bench.malicious_source ] ]

let test_frontend_output_pinned () =
  let corpora = frontend_corpora () in
  let diffs =
    List.concat
      (List.map2
         (fun (corpus, wants) sources ->
           List.concat
             (List.map2
                (fun (cfg : Cage.Config.t) want ->
                  let got =
                    List.map
                      (fun s ->
                        Wasm.Binary.encode (Libc.Run.compile cfg s).co_module)
                      sources
                    |> String.concat "" |> Digest.string |> Digest.to_hex
                  in
                  if got = want then []
                  else
                    [ Printf.sprintf "%s / %s: got %s, want %s" corpus
                        cfg.name got want ])
                Cage.Config.table3 wants))
         frontend_digests corpora)
  in
  if diffs <> [] then Alcotest.fail (String.concat "\n" diffs)

(* The libc is compiled once per key and each program linked against
   it; the oracle compiles the two as one text against the empty unit.
   The binaries and the sanitizer totals must agree. *)
let linked_and_one_text (cfg : Cage.Config.t) source =
  let opts = Minic.Driver.options_of_config cfg in
  let prelude = Libc.Source.prelude_of_config cfg in
  let c = Minic.Driver.compile ~opts ~prelude source in
  let o = Minic.Driver.compile ~opts ~prelude:"" (prelude ^ "\n" ^ source) in
  (c, o)

let same_output what (c : Minic.Driver.compiled) (o : Minic.Driver.compiled)
    =
  if Wasm.Binary.encode c.co_module <> Wasm.Binary.encode o.co_module then
    Alcotest.failf "%s: the linked module differs from the one-text one" what;
  if c.co_sanitizer <> o.co_sanitizer then
    Alcotest.failf "%s: sanitizer totals differ" what

let test_link_matches_one_text () =
  List.iter2
    (fun (corpus, _) sources ->
      List.iter
        (fun (cfg : Cage.Config.t) ->
          List.iteri
            (fun i s ->
              let c, o = linked_and_one_text cfg s in
              same_output (Printf.sprintf "%s #%d / %s" corpus i cfg.name) c o)
            sources)
        Cage.Config.table3)
    frontend_digests (frontend_corpora ())

(* Nothing a program adds reaches the shared libc unit: X compiles the
   same before and after Y, which adds a global, a string literal, a
   host import, an address-taken function and its own [print_i64]. *)
let test_link_leaves_unit_alone () =
  let cfg = Cage.Config.full in
  let x =
    "int main() {\n  char *p = malloc(32);\n  p[0] = 7;\n  int r = p[0];\n\
    \  free(p);\n  return r;\n}"
  in
  let y =
    {|long total = 5;
extern long host_tick(long x);
void print_i64(long v) { total = total + v; }
long twice(long x) { return 2 * x; }
int main() {
  long (*f)(long) = twice;
  print_i64(f((long)strlen("four")));
  return (int)total;
}|}
  in
  let bin s = Wasm.Binary.encode (Libc.Run.compile cfg s).co_module in
  let before = bin x in
  let c, o = linked_and_one_text cfg y in
  same_output "Y" c o;
  if bin x <> before then Alcotest.fail "X compiled differently after Y"

(* The parser pulls its tokens from the lexer as it goes: no token list,
   no token array. Parsing reads about 1.8 minor words per source byte
   on Fuzzgen and 2.1 on PolyBench. Building a token list again costs
   about 2.4 more (6 words a token), and an allocation per character
   far more, so either breaks the bound. *)
let test_parse_allocation () =
  let prelude = Libc.Source.prelude_of_config Cage.Config.full in
  List.iter
    (fun (corpus, sources) ->
      let texts = List.map (fun s -> prelude ^ "\n" ^ s) sources in
      let bytes = List.fold_left (fun n t -> n + String.length t) 0 texts in
      let before = Gc.minor_words () in
      List.iter (fun t -> ignore (Sys.opaque_identity (Minic.Parser.parse t)))
        texts;
      let per_byte = (Gc.minor_words () -. before) /. float_of_int bytes in
      if per_byte > 3.0 then
        Alcotest.failf "%s: %.2f minor words per source byte (bound 3.0)"
          corpus per_byte)
    [ ("polybench", polybench_sources ()); ("fuzzgen 0-199", fuzzgen_sources ()) ]

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_arith_matches_ocaml =
  QCheck.Test.make ~name:"compiled arithmetic agrees with OCaml" ~count:60
    QCheck.(triple (int_range (-1000) 1000) (int_range (-1000) 1000)
              (int_range 1 100))
    (fun (a, b, c) ->
      let src =
        Printf.sprintf
          "int main() { int a = %d; int b = %d; int c = %d; return (a + b) * \
           c + a / c - b %% c; }"
          a b c
      in
      let expect = ((a + b) * c) + (a / c) - (b mod c) in
      Int32.to_int (ret src) = expect)

let prop_loop_sum =
  QCheck.Test.make ~name:"loop sums agree with closed form" ~count:40
    QCheck.(int_range 0 500)
    (fun n ->
      let src =
        Printf.sprintf
          "int main() { int s = 0; for (int i = 1; i <= %d; i++) { s += i; } \
           return s; }"
          n
      in
      Int32.to_int (ret src) = n * (n + 1) / 2)

let prop_configs_agree =
  QCheck.Test.make ~name:"all configs compute identical results" ~count:15
    QCheck.(pair (int_range 1 30) (int_range 1 9))
    (fun (n, k) ->
      let src =
        Printf.sprintf
          {|
            int main() {
              long acc = 1;
              int a[%d];
              for (int i = 0; i < %d; i++) { a[i] = (i * %d) %% 17; }
              for (int i = 0; i < %d; i++) { acc = (acc * 31 + a[i]) %% 100003; }
              return (int)acc;
            }
          |}
          n n k n
      in
      let vals =
        List.map (fun cfg -> ret ~cfg src) Cage.Config.table3
      in
      List.for_all (fun v -> v = List.hd vals) vals)

(* Differential fuzzing: generated programs must match the OCaml
   reference interpreter under every Table 3 configuration. *)
let prop_fuzz_reference =
  QCheck.Test.make ~name:"fuzzed programs match the reference oracle"
    ~count:40 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = Workloads.Fuzzgen.generate ~seed in
      let source = Workloads.Fuzzgen.render prog in
      let expected = Workloads.Fuzzgen.reference prog in
      Int32.equal (ret ~cfg:Cage.Config.baseline_wasm64 source) expected)

let prop_fuzz_all_configs =
  QCheck.Test.make ~name:"fuzzed programs agree across all configs"
    ~count:12 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = Workloads.Fuzzgen.generate ~seed in
      let source = Workloads.Fuzzgen.render prog in
      let expected = Workloads.Fuzzgen.reference prog in
      List.for_all
        (fun cfg -> Int32.equal (ret ~cfg source) expected)
        Cage.Config.table3)

let prop_fuzz_unoptimised_agrees =
  QCheck.Test.make ~name:"optimiser preserves fuzzed-program semantics"
    ~count:20 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let prog = Workloads.Fuzzgen.generate ~seed in
      let source = Workloads.Fuzzgen.render prog in
      let expected = Workloads.Fuzzgen.reference prog in
      let opts =
        { (Minic.Driver.options_of_config Cage.Config.baseline_wasm64) with
          Minic.Driver.optimize = false }
      in
      let prelude =
        Libc.Source.prelude_of_config Cage.Config.baseline_wasm64
      in
      let compiled = Minic.Driver.compile ~opts ~prelude source in
      let wasi = Libc.Wasi.create () in
      let inst =
        Wasm.Exec.instantiate
          ~config:(Cage.Config.instance_config Cage.Config.baseline_wasm64)
          ~imports:(Libc.Wasi.imports wasi) compiled.co_module
      in
      match Wasm.Exec.invoke inst "main" [] with
      | [ Wasm.Values.I32 v ] -> Int32.equal v expected
      | _ -> false)

(* Program seeds whose constant-only subtrees overflow C int: the
   oracle must wrap them at 32 bits, as the compiled code does. *)
let test_fuzz_oracle_int_wrap () =
  List.iter
    (fun seed ->
      let prog = Workloads.Fuzzgen.generate ~seed in
      Alcotest.(check int32)
        (Printf.sprintf "program seed %d" seed)
        (Workloads.Fuzzgen.reference prog)
        (ret ~cfg:Cage.Config.baseline_wasm64 (Workloads.Fuzzgen.render prog)))
    [ 7361; 203929; 554766110 ]

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_arith_matches_ocaml; prop_loop_sum; prop_configs_agree;
      prop_fuzz_reference; prop_fuzz_all_configs;
      prop_fuzz_unoptimised_agrees ]

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "minic"
    [
      ( "arith-control",
        [
          tc "return const" test_return_const;
          tc "precedence" test_precedence;
          tc "division signs" test_division_signs;
          tc "bitops" test_bitops;
          tc "comparisons" test_comparisons;
          tc "short circuit" test_short_circuit;
          tc "if/else chain" test_if_else_chain;
          tc "while" test_while_loop;
          tc "for" test_for_loop;
          tc "do-while" test_do_while;
          tc "break/continue" test_break_continue;
          tc "nested loops" test_nested_loops;
          tc "ternary" test_ternary;
          tc "recursion" test_recursion;
          tc "switch dense" test_switch_dense;
          tc "switch sparse" test_switch_sparse;
          tc "switch break" test_switch_break_and_default;
          tc "switch no default" test_switch_no_default;
          tc "switch on long" test_switch_on_long;
          tc "switch emits br_table" test_switch_uses_br_table;
          tc "mutual recursion" test_mutual_recursion;
        ] );
      ( "types",
        [
          tc "long arith" test_long_arith;
          tc "char" test_char_type;
          tc "float/double" test_float_double;
          tc "conversions" test_int_float_conversions;
          tc "casts" test_casts;
          tc "sizeof" test_sizeof;
          tc "globals" test_globals;
          tc "global array" test_global_array;
        ] );
      ( "memory",
        [
          tc "local array" test_local_array;
          tc "2d array" test_matrix_2d;
          tc "pointers" test_pointers_basic;
          tc "pointer arith" test_pointer_arith;
          tc "pointer diff" test_pointer_diff;
          tc "array param" test_array_param;
          tc "out param" test_out_param;
          tc "struct members" test_struct_members;
          tc "struct pointer" test_struct_pointer;
          tc "struct initializer" test_struct_initializer;
          tc "heap linked list" test_linked_list_heap;
        ] );
      ( "function-pointers",
        [
          tc "call" test_function_pointer_call;
          tc "dispatch" test_function_pointer_select;
          tc "vtable struct" test_vtable_struct;
        ] );
      ( "libc",
        [
          tc "malloc/free reuse" test_malloc_free_reuse;
          tc "calloc zero" test_malloc_zeroed;
          tc "realloc" test_realloc_preserves;
          tc "strings" test_strings;
          tc "print output" test_print_output;
        ] );
      ( "configurations",
        [
          tc "all configs agree" test_all_configs_agree;
          tc "wasm32 pointers" test_wasm32_pointers;
        ] );
      ( "memory-safety",
        [
          tc "heap overflow" test_heap_overflow_caught;
          tc "heap UAF" test_heap_uaf_caught;
          tc "double free" test_double_free_caught;
          tc "stack overflow" test_stack_overflow_caught;
          tc "safe stack untouched" test_safe_stack_not_instrumented;
          tc "unsafe stack instrumented" test_unsafe_stack_instrumented;
          tc "escape via cast laundering" test_escape_cvt_laundering;
          tc "escape via store/reload" test_escape_store_reload;
          tc "escape via arithmetic" test_escape_arith_mixed;
          tc "instrument-all ablation" test_instrument_all_ablation;
          tc "pauth config" test_pauth_config_runs;
          tc "full CAGE" test_full_cage_runs_everything;
        ] );
      ( "front-end-errors",
        [
          tc "unknown identifier" test_error_unknown_identifier;
          tc "call arity" test_error_call_arity;
          tc "void value" test_error_void_value;
          tc "missing return value" test_error_missing_return_value;
          tc "bad member" test_error_bad_member;
          tc "duplicate case" test_error_duplicate_case;
          tc "vla rejected" test_error_nonconst_array_size;
          tc "unknown struct" test_error_unknown_struct;
          tc "addr of rvalue" test_error_addr_of_rvalue;
          tc "errors carry lines" test_error_located_line;
          tc "parse error before later lex error" test_error_order;
          tc "redefinition" test_error_redefinition;
        ]
        @ List.map
            (fun (name, substring, src) ->
              tc name (fun () -> expect_compile_error ~substring src))
            rejected_sources );
      ( "front-end-output",
        [ tc "digests pinned" test_frontend_output_pinned;
          tc "linked = one text" test_link_matches_one_text;
          tc "programs leave the libc unit alone" test_link_leaves_unit_alone;
          tc "parse allocation" test_parse_allocation ] );
      ("fuzz-oracle", [ tc "int-typed constants wrap" test_fuzz_oracle_int_wrap ]);
      ("minic-properties", qtests);
    ]
