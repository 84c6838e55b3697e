(** The execution driver: instantiation, invocation, and the
    tree-walking interpreter.

    Since the threaded-code engine landed, this module is a thin layer:
    numeric semantics live in {!Numerics}, the engine-shared runtime
    services (obs ticks, fuel, deferred-fault draining, Cage segment
    instruction bodies) in {!Rt}, checked memory access in {!Checked},
    and the hot path of a [Threaded]-engine instance in {!Compile}. The
    tree walker below remains the reference semantics the threaded
    engine is differentially tested against.

    Instantiation reads the module through the door
    ({!Validate.prepare}), so every body the interpreter walks is the
    prepared form of a well-typed one: operand types and stack heights
    are guaranteed statically, and the [assert false] arms below are
    unreachable.

    Loads and stores check allocation tags when the instance was
    instantiated with [enforce_tags] (Eqs. 1-4); the five Cage
    instructions implement Eqs. 5-13. Execution events are reported to
    the instance's {!Meter} so the Cage lowering layer can price runs
    under different hardware configurations without re-executing. *)

open Instance

exception Branch of int * Values.t list
exception Ret of Values.t list

let trap fmt = Rt.trap fmt
let max_call_depth = Rt.max_call_depth

(* ------------------------------------------------------------------ *)
(* Stack helpers                                                       *)
(* ------------------------------------------------------------------ *)

let pop stack =
  match !stack with
  | [] -> assert false
  | v :: rest ->
      stack := rest;
      v

let push stack v = stack := v :: !stack

let pop_i32 stack =
  match pop stack with Values.I32 v -> v | _ -> assert false

let pop_i64 stack =
  match pop stack with Values.I64 v -> v | _ -> assert false

let popn stack n =
  let rec go acc n = if n = 0 then acc else go (pop stack :: acc) (n - 1) in
  go [] n

(* ------------------------------------------------------------------ *)
(* Memory access with tag checking                                     *)
(* ------------------------------------------------------------------ *)

(* Every access — scalar and bulk — goes through the unified [Checked]
   layer: bounds check first (an out-of-bounds access is a sandbox
   violation and reported as such regardless of tag state), then the
   MTE tag check, then metering. *)

let do_load ~elide ~ebounds (inst : Instance.t) stack (ty : Types.num_type)
    pack (ma : Ast.memarg) =
  let mem = memory inst in
  let addr, tag = Checked.resolve_addr inst (pop stack) ma.offset in
  let size =
    match pack with
    | None -> ( match ty with I32 | F32 -> 4 | I64 | F64 -> 8)
    | Some (p, _) -> ( match p with Ast.Pack8 -> 1 | Pack16 -> 2 | Pack32 -> 4)
  in
  Checked.load ~elide ~ebounds inst mem ~addr ~tag ~len:size;
  let v =
    try
      match (ty, pack) with
      | I32, None -> Values.I32 (Memory.load_i32 mem addr)
      | I64, None -> Values.I64 (Memory.load_i64 mem addr)
      | F32, None -> Values.F32 (Memory.load_f32 mem addr)
      | F64, None -> Values.F64 (Memory.load_f64 mem addr)
      | (I32 | I64), Some (p, ext) ->
          let n =
            match p with Ast.Pack8 -> 1 | Pack16 -> 2 | Pack32 -> 4
          in
          let raw = Memory.load_n mem addr n in
          let bits = n * 8 in
          let v =
            match ext with
            | Ast.ZX -> raw
            | Ast.SX ->
                Int64.shift_right (Int64.shift_left raw (64 - bits)) (64 - bits)
          in
          if ty = I32 then Values.I32 (Int64.to_int32 v) else Values.I64 v
      | (F32 | F64), Some _ -> assert false
    with Memory.Out_of_bounds _ -> trap "bounds: out of bounds memory access"
  in
  push stack v

let do_store ~elide ~ebounds (inst : Instance.t) stack (ty : Types.num_type)
    pack (ma : Ast.memarg) =
  let mem = memory inst in
  let v = pop stack in
  let addr, tag = Checked.resolve_addr inst (pop stack) ma.offset in
  let size =
    match pack with
    | None -> ( match ty with I32 | F32 -> 4 | I64 | F64 -> 8)
    | Some p -> ( match p with Ast.Pack8 -> 1 | Pack16 -> 2 | Pack32 -> 4)
  in
  Checked.store ~elide ~ebounds inst mem ~addr ~tag ~len:size;
  try
    match (ty, pack, v) with
    | I32, None, Values.I32 x -> Memory.store_i32 mem addr x
    | I64, None, Values.I64 x -> Memory.store_i64 mem addr x
    | F32, None, Values.F32 x -> Memory.store_f32 mem addr x
    | F64, None, Values.F64 x -> Memory.store_f64 mem addr x
    | I32, Some p, Values.I32 x ->
        let n = match p with Ast.Pack8 -> 1 | Pack16 -> 2 | Pack32 -> 4 in
        Memory.store_n mem addr n (Int64.of_int32 x)
    | I64, Some p, Values.I64 x ->
        let n = match p with Ast.Pack8 -> 1 | Pack16 -> 2 | Pack32 -> 4 in
        Memory.store_n mem addr n x
    | _ -> assert false
  with Memory.Out_of_bounds _ -> trap "bounds: out of bounds memory access"

(* ------------------------------------------------------------------ *)
(* Main evaluator                                                      *)
(* ------------------------------------------------------------------ *)

(* Take a prepared branch: the target depth and the label's arity were
   resolved at instantiation (O(1) here). *)
let take_branch stack ({ depth; arity } : Code.label) =
  raise (Branch (depth, popn stack arity))

(* [fn] is the current prepared function, threaded down so the
   Load/Store and segment dispatches can test its elision bitsets
   ([Code.func.elide]/[belide]/[arena]) by instruction id in O(1); all
   three are [Bytes.empty] when no analysis ran. *)
let rec eval (inst : Instance.t) ~depth ~(fn : Code.func) locals stack
    (code : Code.instr array) =
  Array.iter (eval_instr inst ~depth ~fn locals stack) code

and eval_instr (inst : Instance.t) ~depth ~fn locals stack
    (ins : Code.instr) =
  Rt.obs_tick inst;
  match ins with
  | Code.Basic (i, id) -> eval_basic inst ~depth ~fn locals stack i id
  | Code.Block (_, body) -> block inst ~depth ~fn locals stack body
  | Code.Loop (_, body) ->
      (* a back-edge drops whatever the body left above the entry
         stack, exactly as a branch to a block does *)
      let entry = !stack in
      let rec iter () =
        match eval inst ~depth ~fn locals stack body with
        | () -> ()
        | exception Branch (0, _) ->
            Rt.meter_br inst;
            stack := entry;
            iter ()
        | exception Branch (n, vs) -> raise (Branch (n - 1, vs))
      in
      iter ()
  | Code.If (_, then_, else_) ->
      Rt.meter_br inst;
      let c = pop_i32 stack in
      let body = if not (Int32.equal c 0l) then then_ else else_ in
      block inst ~depth ~fn locals stack body
  | Code.Br l ->
      Rt.meter_br inst;
      take_branch stack l
  | Code.BrIf l ->
      Rt.meter_br inst;
      let c = pop_i32 stack in
      if not (Int32.equal c 0l) then take_branch stack l
  | Code.BrTable (targets, default) ->
      Rt.meter_br inst;
      let i = Int32.to_int (pop_i32 stack) in
      let l =
        if i >= 0 && i < Array.length targets then Array.unsafe_get targets i
        else default
      in
      take_branch stack l
  | Code.Return arity ->
      (match inst.meter with
      | Some m -> m.return_ <- m.return_ + 1
      | None -> ());
      raise (Ret (popn stack arity))

(* A branch out of a block carries the label's values to the block's
   entry stack: operands a validated body left below them are dropped,
   as the spec requires. The stack is an immutable list, so the entry
   stack is restored by reference. *)
and block inst ~depth ~fn locals stack body =
  let entry = !stack in
  try eval inst ~depth ~fn locals stack body with
  | Branch (0, vs) ->
      stack := entry;
      List.iter (push stack) vs
  | Branch (n, vs) -> raise (Branch (n - 1, vs))

and eval_basic (inst : Instance.t) ~depth ~fn locals stack
    (ins : Ast.instr) (id : int) =
  let meter f = match inst.meter with Some m -> f m | None -> () in
  match ins with
  | Unreachable -> trap "unreachable executed"
  | Nop -> ()
  | Block _ | Loop _ | If _ | Br _ | BrIf _ | BrTable _ | Return ->
      (* control flow is prepared away by the door ([Validate.prepare]) *)
      assert false
  | Call i ->
      meter (fun m -> m.call <- m.call + 1);
      invoke_idx inst ~depth:(depth + 1) stack i
  | CallIndirect ti ->
      meter (fun m -> m.call_indirect <- m.call_indirect + 1);
      let idx = Int32.to_int (pop_i32 stack) in
      if idx < 0 || idx >= Array.length inst.table then
        trap "undefined element %d in table" idx;
      (match inst.table.(idx) with
      | None -> trap "uninitialized table element %d" idx
      | Some fi ->
          let expected = inst.types.(ti) in
          let actual = func_type inst.funcs.(fi) in
          if not (Types.func_type_equal expected actual) then
            trap "indirect call type mismatch";
          invoke_idx inst ~depth:(depth + 1) stack fi)
  | Drop -> ignore (pop stack)
  | Select ->
      meter (fun m -> m.select <- m.select + 1);
      let c = pop_i32 stack in
      let v2 = pop stack in
      let v1 = pop stack in
      push stack (if not (Int32.equal c 0l) then v1 else v2)
  | LocalGet i ->
      meter (fun m -> m.local_access <- m.local_access + 1);
      push stack locals.(i)
  | LocalSet i ->
      meter (fun m -> m.local_access <- m.local_access + 1);
      locals.(i) <- pop stack
  | LocalTee i ->
      meter (fun m -> m.local_access <- m.local_access + 1);
      let v = pop stack in
      locals.(i) <- v;
      push stack v
  | GlobalGet i ->
      meter (fun m -> m.global_access <- m.global_access + 1);
      push stack inst.globals.(i)
  | GlobalSet i ->
      meter (fun m -> m.global_access <- m.global_access + 1);
      inst.globals.(i) <- pop stack
  | I32Const v ->
      meter (fun m -> m.const <- m.const + 1);
      push stack (Values.I32 v)
  | I64Const v ->
      meter (fun m -> m.const <- m.const + 1);
      push stack (Values.I64 v)
  | F32Const v ->
      meter (fun m -> m.const <- m.const + 1);
      push stack (Values.F32 (Values.to_f32 v))
  | F64Const v ->
      meter (fun m -> m.const <- m.const + 1);
      push stack (Values.F64 v)
  | IUnop (w, op) ->
      meter (fun m -> m.ialu <- m.ialu + 1);
      (match w with
      | W32 -> push stack (Values.I32 (Numerics.eval_iunop32 op (pop_i32 stack)))
      | W64 -> push stack (Values.I64 (Numerics.eval_iunop64 op (pop_i64 stack))))
  | IBinop (w, op) ->
      meter (fun m ->
          match op with
          | Mul -> m.imul <- m.imul + 1
          | DivS | DivU | RemS | RemU -> m.idiv <- m.idiv + 1
          | _ -> m.ialu <- m.ialu + 1);
      (match w with
      | W32 ->
          let y = pop_i32 stack in
          let x = pop_i32 stack in
          push stack (Values.I32 (Numerics.eval_ibinop32 op x y))
      | W64 ->
          let y = pop_i64 stack in
          let x = pop_i64 stack in
          push stack (Values.I64 (Numerics.eval_ibinop64 op x y)))
  | ITestop w ->
      meter (fun m -> m.ialu <- m.ialu + 1);
      let z =
        match w with
        | W32 -> Int32.equal (pop_i32 stack) 0l
        | W64 -> Int64.equal (pop_i64 stack) 0L
      in
      push stack (Values.I32 (if z then 1l else 0l))
  | IRelop (w, op) ->
      meter (fun m -> m.ialu <- m.ialu + 1);
      let b =
        match w with
        | W32 ->
            let y = pop_i32 stack in
            let x = pop_i32 stack in
            Numerics.eval_irelop32 op x y
        | W64 ->
            let y = pop_i64 stack in
            let x = pop_i64 stack in
            Numerics.eval_irelop64 op x y
      in
      push stack (Values.I32 (if b then 1l else 0l))
  | FUnop (w, op) ->
      meter (fun m -> m.falu <- m.falu + 1);
      let v = pop stack in
      (match (w, v) with
      | W32, Values.F32 x ->
          push stack (Values.F32 (Values.to_f32 (Numerics.eval_funop op x)))
      | W64, Values.F64 x -> push stack (Values.F64 (Numerics.eval_funop op x))
      | _ -> assert false)
  | FBinop (w, op) ->
      meter (fun m ->
          match op with
          | FMul -> m.fmul <- m.fmul + 1
          | FDiv -> m.fdiv <- m.fdiv + 1
          | _ -> m.falu <- m.falu + 1);
      let v2 = pop stack in
      let v1 = pop stack in
      (match (w, v1, v2) with
      | W32, Values.F32 x, Values.F32 y ->
          push stack (Values.F32 (Values.to_f32 (Numerics.eval_fbinop op x y)))
      | W64, Values.F64 x, Values.F64 y ->
          push stack (Values.F64 (Numerics.eval_fbinop op x y))
      | _ -> assert false)
  | FRelop (w, op) ->
      meter (fun m -> m.falu <- m.falu + 1);
      let v2 = pop stack in
      let v1 = pop stack in
      let b =
        match (w, v1, v2) with
        | W32, Values.F32 x, Values.F32 y -> Numerics.eval_frelop op x y
        | W64, Values.F64 x, Values.F64 y -> Numerics.eval_frelop op x y
        | _ -> assert false
      in
      push stack (Values.I32 (if b then 1l else 0l))
  | Cvtop op ->
      meter (fun m -> m.cvt <- m.cvt + 1);
      push stack (Numerics.eval_cvtop op (pop stack))
  | Load (ty, pack, ma) ->
      do_load
        ~elide:(Code.elidable fn.Code.elide id)
        ~ebounds:(Code.elidable fn.Code.belide id)
        inst stack ty pack ma
  | Store (ty, pack, ma) ->
      do_store
        ~elide:(Code.elidable fn.Code.elide id)
        ~ebounds:(Code.elidable fn.Code.belide id)
        inst stack ty pack ma
  | MemorySize ->
      let mem = memory inst in
      let pages = Memory.size_pages mem in
      push stack
        (match Memory.idx_type mem with
        | Types.Idx32 -> Values.I32 (Int64.to_int32 pages)
        | Types.Idx64 -> Values.I64 pages)
  | MemoryGrow ->
      let mem = memory inst in
      let delta =
        match Memory.idx_type mem with
        | Types.Idx32 -> Int64.logand (Int64.of_int32 (pop_i32 stack)) 0xffffffffL
        | Types.Idx64 -> pop_i64 stack
      in
      let old = Rt.memory_grow inst delta in
      push stack
        (match Memory.idx_type mem with
        | Types.Idx32 -> Values.I32 (Int64.to_int32 old)
        | Types.Idx64 -> Values.I64 old)
  | MemoryFill ->
      let mem = memory inst in
      (* Lengths are plain integers, never pointers: no tag stripping,
         and a negative/huge i64 length simply fails the bounds check. *)
      let len =
        match Memory.idx_type mem with
        | Types.Idx32 -> Int64.logand (Int64.of_int32 (pop_i32 stack)) 0xffffffffL
        | Types.Idx64 -> pop_i64 stack
      in
      let v = Int32.to_int (pop_i32 stack) in
      let dst, dtag = Checked.resolve_addr inst (pop stack) 0L in
      meter (fun m -> m.bulk_fill <- m.bulk_fill + 1);
      Checked.fill inst mem ~addr:dst ~tag:dtag ~len v
  | MemoryCopy ->
      let mem = memory inst in
      let len =
        match Memory.idx_type mem with
        | Types.Idx32 -> Int64.logand (Int64.of_int32 (pop_i32 stack)) 0xffffffffL
        | Types.Idx64 -> pop_i64 stack
      in
      let src, stag = Checked.resolve_addr inst (pop stack) 0L in
      let dst, dtag = Checked.resolve_addr inst (pop stack) 0L in
      meter (fun m -> m.bulk_copy <- m.bulk_copy + 1);
      Checked.copy inst mem ~dst ~dtag ~src ~stag ~len
  | SegmentNew o ->
      let l = pop_i64 stack in
      let k = pop_i64 stack in
      push stack
        (Values.I64
           (Rt.segment_new ~arena:(Code.elidable fn.Code.arena id) inst ~k ~l o))
  | SegmentSetTag o ->
      let l = pop_i64 stack in
      let t = pop_i64 stack in
      let k = pop_i64 stack in
      Rt.segment_set_tag inst ~k ~t ~l o
  | SegmentFree o ->
      let l = pop_i64 stack in
      let k = pop_i64 stack in
      Rt.segment_free ~arena:(Code.elidable fn.Code.arena id) inst ~k ~l o
  | PointerSign ->
      let k = pop_i64 stack in
      push stack (Values.I64 (Rt.pointer_sign inst k))
  | PointerAuth ->
      let k = pop_i64 stack in
      push stack (Values.I64 (Rt.pointer_auth inst k))

(* Invoke function index [i] with arguments taken from [stack]. *)
and invoke_idx (inst : Instance.t) ~depth stack i =
  if depth > Rt.max_call_depth then
    trap "stack: call stack exhausted (depth %d)" depth;
  Rt.burn_fuel inst;
  match inst.funcs.(i) with
  | Host_func { fn; ty; name } ->
      if Obs.Hook.enabled () then begin
        Obs.Hook.set_instance inst.id;
        Obs.Hook.event (Obs.Event.Host_call { name })
      end;
      (* A host call is a synchronization point: report any deferred
         fault latched before control leaves wasm. *)
      Rt.drain_deferred inst;
      let args = popn stack (List.length ty.params) in
      List.iter (push stack) (Rt.host_call inst ~name ~ty fn args)
  | Wasm_func { func; ty; code; xcode; _ } ->
      let args = popn stack (List.length ty.params) in
      inst.call_stack <- i :: inst.call_stack;
      if Obs.Hook.enabled () then begin
        Obs.Hook.set_instance inst.id;
        Obs.Hook.event
          (Obs.Event.Func_enter { idx = i; name = Instance.func_name inst i })
      end;
      let results =
        match xcode with
        | Some xf -> Compile.run_body inst ~depth xf args
        | None ->
            let locals =
              Array.of_list (args @ List.map Values.default func.locals)
            in
            let fstack = ref [] in
            (try
               eval inst ~depth ~fn:code locals fstack code.Code.body
             with
            | Ret vs -> List.iter (push fstack) vs
            | Branch (_, vs) -> List.iter (push fstack) vs);
            (* take the results off the callee stack *)
            popn fstack code.Code.result_arity
      in
      (* Function return is a synchronization point (§4.2): deferred
         Async/Asymmetric faults are reported here, sticky-first. *)
      Rt.drain_deferred inst;
      (* pop the frame on normal completion only: after a trap the
         frozen stack is the crash backtrace (see Instance.call_stack) —
         and the matching [Func_leave] is likewise skipped, so the
         Chrome trace shows an unfinished slice for the crashed call. *)
      if Obs.Hook.enabled () then
        Obs.Hook.event
          (Obs.Event.Func_leave { idx = i; name = Instance.func_name inst i });
      (match inst.call_stack with
      | _ :: tl -> inst.call_stack <- tl
      | [] -> ());
      List.iter (push stack) results

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

let instance_counter = ref 0

(* The function array's filler (the array rule of {!Ast.array_mapi}): a
   static constant, as its function is closed. Every slot is overwritten
   before the array is read. *)
let unresolved =
  Host_func { fn = (fun _ _ -> []); ty = { Types.params = []; results = [] }; name = "" }

(* Caps on what one instance may declare, past what validation allows:
   the memory cap is {!Memory.implementation_max_pages}, and a table
   gets at most wasmtime's 10,000,000 elements. *)
let max_table_elems = 10_000_000L

let check_declared_sizes (m : Ast.module_) =
  let over what n cap =
    if n > cap then
      raise
        (Trap
           (Printf.sprintf "%s of %Ld exceeds the implementation cap of %Ld"
              what n cap))
  in
  Option.iter
    (fun (mt : Types.mem_type) ->
      over "initial memory pages" mt.mem_limits.min Memory.implementation_max_pages)
    m.memory;
  Option.iter
    (fun (tt : Types.table_type) ->
      over "initial table elements" tt.tbl_limits.min max_table_elems)
    m.table

(** Validate and instantiate a module. The door ({!Validate.prepare})
    is its one pass over the bodies: a module that fails it raises
    {!Validate.Invalid} before any instance state exists (it consumes
    no instance id), and one that declares more than a cap
    raises {!Instance.Trap} at the same point. [imports] supplies host
    functions by (module, name); missing imports raise {!Instance.Trap}.
    Data and element segments are applied and the start function runs
    before the instance is returned, as the spec requires. Under the
    [Threaded] engine (the default) every local function is lowered to
    threaded code here, once, before the start function runs — so
    element/data segments, the start function, snapshots taken of this
    instance, and every later invocation all execute compiled bodies. *)
let instantiate ?(config = Instance.default_config)
    ?(imports : (string * string * Instance.host_func) list = [])
    (m : Ast.module_) : Instance.t =
  let ix, codes = Validate.prepare m in
  check_declared_sizes m;
  incr instance_counter;
  let id = !instance_counter in
  let rng = Random.State.make [| config.seed; id |] in
  let resolve (im : Ast.import) =
    match
      List.find_opt
        (fun (mo, n, _) ->
          String.equal mo im.im_module && String.equal n im.im_name)
        imports
    with
    | Some (_, _, fn) ->
        Host_func
          { fn; ty = ix.ix_types.(im.im_type);
            name = im.im_module ^ "." ^ im.im_name }
    | None ->
        raise
          (Trap
             (Printf.sprintf "unresolved import %s.%s" im.im_module im.im_name))
  in
  let mem = Option.map Memory.create m.memory in
  let mte =
    Option.map
      (fun mem ->
        Arch.Mte.create ~mode:config.mte_mode
          (Arch.Tag_memory.create
             ~size_bytes:(Int64.to_int (Memory.size_bytes mem))))
      mem
  in
  let table =
    match m.table with
    | None -> [||]
    | Some tt -> Array.make (Int64.to_int tt.tbl_limits.min) None
  in
  let inst =
    {
      id;
      module_ = m;
      types = ix.ix_types;
      funcs = [||];
      table;
      mem;
      mte;
      globals = Ast.array_mapi (Values.I32 0l) (fun _ (g : Ast.global) -> g.g_init) m.globals;
      pac_key =
        (match config.pac_key with
        | Some k -> k
        | None ->
            Arch.Pac.random_key
              ~rng:(fun () -> Random.State.int64 rng Int64.max_int));
      pac_modifier = config.pac_modifier;
      pac_config = config.pac_config;
      exclude = config.exclude;
      enforce_tags = config.enforce_tags;
      rng;
      meter = config.meter;
      fuel = config.fuel;
      call_stack = [];
      last_fault = None;
      chaos = None;
    }
  in
  let n_imports = Array.length ix.ix_imports in
  let codes =
    Code.with_plan ~elide:config.elide ~belide:config.belide ~arena:config.arena codes
  in
  let funcs = Array.make (n_imports + Array.length codes) unresolved in
  Array.iteri (fun i im -> funcs.(i) <- resolve im) ix.ix_imports;
  Array.iteri
    (fun j (f : Ast.func) ->
      funcs.(n_imports + j) <-
        Wasm_func
          { inst_id = id; func = f; ty = ix.ix_types.(f.ftype); code = codes.(j);
            xcode = None })
    ix.ix_funcs;
  let inst = { inst with funcs } in
  if config.engine = Threaded then Compile.compile_instance ix inst;
  (* element segments *)
  List.iter
    (fun (e : Ast.elem) ->
      List.iteri
        (fun j fi ->
          let pos = Int64.to_int e.e_offset + j in
          if pos < 0 || pos >= Array.length inst.table then
            raise (Trap "element segment out of table bounds");
          inst.table.(pos) <- Some fi)
        e.e_funcs)
    m.elems;
  (* data segments *)
  List.iter
    (fun (d : Ast.data) ->
      try Memory.write_string (memory inst) ~addr:d.d_offset d.d_bytes
      with Memory.Out_of_bounds _ ->
        raise (Trap "data segment out of memory bounds"))
    m.datas;
  (* start function *)
  Option.iter
    (fun i ->
      let stack = ref [] in
      invoke_idx inst ~depth:0 stack i)
    m.start;
  inst

(** Call a function by index (used by the libc shims). The arguments
    come from the embedder, so they are checked against the function's
    declared parameters before either engine sees them. *)
let invoke_function inst i args =
  Rt.check_boundary "invoke" (Instance.func_name inst i)
    (func_type inst.funcs.(i)).params args;
  let stack = ref [] in
  List.iter (push stack) args;
  invoke_idx inst ~depth:0 stack i;
  List.rev !stack

(** Call an exported function by name. *)
let invoke inst name args =
  match Instance.exported_func inst name with
  | None -> raise (Trap (Printf.sprintf "no exported function %S" name))
  | Some i -> invoke_function inst i args
