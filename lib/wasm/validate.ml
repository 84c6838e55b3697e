(** Module validation, and the door every consumer of a module goes
    through.

    Implements the standard WebAssembly validation algorithm (operand
    stack of possibly-unknown types plus a control-frame stack), extended
    with the Cage typing rules of paper Fig. 10:

    {v
    segment.new o     : [i64 i64] -> [i64]      (requires memory, wasm64)
    segment.set_tag o : [i64 i64 i64] -> []
    segment.free o    : [i64 i64] -> []
    i64.pointer_sign  : [i64] -> [i64]
    i64.pointer_auth  : [i64] -> [i64]
    v}

    Cage instructions are rejected unless the [cage] feature is enabled,
    and additionally require the module's memory to use 64-bit indices
    (the extension builds on memory64, §4.2).

    The walk that type-checks a body also builds its prepared form
    ({!Code.func}): each block body becomes an array, each branch carries
    the depth and arity of the frame it checked against, and each basic
    instruction takes the next id as the walk reaches it. {!prepare} is
    the only producer of that form, so nothing plans, lowers or
    instantiates a body this walk has not passed. *)

exception Invalid of string

let error fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

(* An operand's type is an int code, [unknown] for the bottom of an
   unreachable frame, so a push stores an int and allocates nothing. *)
let unknown = 4

let code : Types.val_type -> int = function
  | Types.I32 -> 0
  | Types.I64 -> 1
  | Types.F32 -> 2
  | Types.F64 -> 3

let type_of_code = [| Types.I32; Types.I64; Types.F32; Types.F64 |]

type frame = {
  label_types : Types.val_type list;  (** types br to this label expects *)
  end_types : Types.val_type list;
  height : int;
  mutable unreachable : bool;
}

(* Validation is linear in stack depth, label depth and module size: a
   branch reads its label from a {!Label_stack}, and every type,
   function and global lookup reads the module's {!Ast.index}. One
   workspace serves every body of a module; each leaves its operand and
   control stacks empty. *)
type ctx = {
  m : Ast.module_;
  ix : Ast.index;
  cage : bool;
  mutable locals : Types.val_type array;
  mutable ret : Types.val_type list;
  mutable ops : int array;  (** operand type codes, [height] of them live *)
  mutable height : int;
  ctrls : frame Label_stack.t;
  mutable top : frame;
      (** the innermost frame ([no_frame] when there is none), kept
          beside [ctrls] because every pop reads it *)
  mutable next : int;  (** the id the next basic instruction takes *)
}

(* What the control stack's vacated cells hold. *)
let no_frame = { label_types = []; end_types = []; height = 0; unreachable = false }

let top ctx = if ctx.top == no_frame then error "control stack empty" else ctx.top

let push_code ctx c =
  if ctx.height = Array.length ctx.ops then begin
    let a = Array.make (2 * ctx.height) unknown in
    Array.blit ctx.ops 0 a 0 ctx.height;
    ctx.ops <- a
  end;
  Array.unsafe_set ctx.ops ctx.height c;
  ctx.height <- ctx.height + 1

let push ctx t = push_code ctx (code t)

let pop_any ctx =
  let frame = top ctx in
  if ctx.height = frame.height then
    if frame.unreachable then unknown else error "operand stack underflow"
  else begin
    ctx.height <- ctx.height - 1;
    Array.unsafe_get ctx.ops ctx.height
  end

let pop ctx t =
  let c = pop_any ctx in
  if c <> unknown && c <> code t then
    error "type mismatch: expected %s, got %s"
      (Types.string_of_num_type t)
      (Types.string_of_num_type type_of_code.(c))

(* Label and result lists hold at most one type but for a multi-value
   function's results: pop and push the short ones without a closure or
   a reversed copy. *)
let pop_list ctx = function
  | [] -> ()
  | [ t ] -> pop ctx t
  | ts -> List.iter (pop ctx) (List.rev ts)

let push_list ctx = function
  | [] -> ()
  | [ t ] -> push ctx t
  | ts -> List.iter (push ctx) ts

let push_frame ctx ~label_types ~end_types =
  let frame = { label_types; end_types; height = ctx.height; unreachable = false } in
  Label_stack.push ctx.ctrls frame;
  ctx.top <- frame

let pop_frame ctx =
  let frame = top ctx in
  pop_list ctx frame.end_types;
  if ctx.height <> frame.height then error "values left on stack at end of block";
  ctx.top <- Label_stack.pop ctx.ctrls

let set_unreachable ctx =
  let frame = top ctx in
  (* drop operands down to the frame height *)
  ctx.height <- frame.height;
  frame.unreachable <- true

(* Branch [n]'s frame, and the prepared label it resolves to. *)
let label ctx n =
  let frame = Label_stack.nth ctx.ctrls n in
  if frame == no_frame then error "branch depth %d out of range" n else frame

let resolve n frame = { Code.depth = n; arity = List.length frame.label_types }

(* A block's result types (MVP block types take no parameters), as
   static lists, so that checking a typed block allocates none. *)
let block_types : Ast.block_type -> Types.val_type list = function
  | Ast.ValBlock None -> []
  | Ast.ValBlock (Some Types.I32) -> [ Types.I32 ]
  | Ast.ValBlock (Some Types.I64) -> [ Types.I64 ]
  | Ast.ValBlock (Some Types.F32) -> [ Types.F32 ]
  | Ast.ValBlock (Some Types.F64) -> [ Types.F64 ]

let memory ctx =
  match ctx.m.memory with
  | Some mt -> mt
  | None -> error "instruction requires a memory"

let addr_ty ctx = Types.addr_type (memory ctx).mem_idx

let require_cage ctx name =
  if not ctx.cage then error "%s requires the cage feature" name;
  if (memory ctx).mem_idx <> Types.Idx64 then
    error "%s requires a 64-bit (memory64) memory" name

(* Extra static checks for the three segment instructions: the static
   offset must respect 16-byte MTE granule alignment (a misaligned
   segment base can never be tagged), and the memory must actually have
   tag space — a zero-min-page memory has no granules to tag, so every
   segment op on it would be a guaranteed runtime trap. Rejecting both
   at validation time instead keeps "validated implies taggable". *)
let require_segment ctx name o =
  require_cage ctx name;
  if o < 0L then error "%s: negative offset" name;
  if Int64.rem o 16L <> 0L then
    error "%s: offset %Ld is not 16-byte granule aligned" name o;
  if (memory ctx).mem_limits.Types.min = 0L then
    error "%s: memory has no tag space (zero minimum pages)" name

let check_align (ma : Ast.memarg) ~natural =
  if ma.align < 0 || (1 lsl ma.align) > natural then
    error "alignment 2^%d larger than natural %d" ma.align natural;
  if ma.offset < 0L then error "negative memarg offset"

let num_size : Types.num_type -> int = function
  | Types.I32 | Types.F32 -> 4
  | Types.I64 | Types.F64 -> 8

let pack_bytes : Ast.pack_size -> int = function
  | Ast.Pack8 -> 1
  | Ast.Pack16 -> 2
  | Ast.Pack32 -> 4

let width_ty : Ast.width -> Types.val_type = function
  | Ast.W32 -> Types.I32
  | Ast.W64 -> Types.I64

let fwidth_ty : Ast.width -> Types.val_type = function
  | Ast.W32 -> Types.F32
  | Ast.W64 -> Types.F64

let cvt_sig : Ast.cvtop -> Types.val_type * Types.val_type = function
  | I32WrapI64 -> (Types.I64, Types.I32)
  | I64ExtendI32S | I64ExtendI32U -> (Types.I32, Types.I64)
  | I32TruncF32S | I32TruncF32U -> (Types.F32, Types.I32)
  | I32TruncF64S | I32TruncF64U -> (Types.F64, Types.I32)
  | I64TruncF32S | I64TruncF32U -> (Types.F32, Types.I64)
  | I64TruncF64S | I64TruncF64U -> (Types.F64, Types.I64)
  | F32ConvertI32S | F32ConvertI32U -> (Types.I32, Types.F32)
  | F32ConvertI64S | F32ConvertI64U -> (Types.I64, Types.F32)
  | F64ConvertI32S | F64ConvertI32U -> (Types.I32, Types.F64)
  | F64ConvertI64S | F64ConvertI64U -> (Types.I64, Types.F64)
  | F32DemoteF64 -> (Types.F64, Types.F32)
  | F64PromoteF32 -> (Types.F32, Types.F64)
  | I32ReinterpretF32 -> (Types.F32, Types.I32)
  | I64ReinterpretF64 -> (Types.F64, Types.I64)
  | F32ReinterpretI32 -> (Types.I32, Types.F32)
  | F64ReinterpretI64 -> (Types.I64, Types.F64)

let in_range a i = i >= 0 && i < Array.length a

let func_type ctx i =
  if in_range ctx.ix.ix_types i then ctx.ix.ix_types.(i)
  else error "type index %d out of range" i

let type_of_func ctx i =
  let ni = Array.length ctx.ix.ix_imports in
  if i >= 0 && i < ni then func_type ctx ctx.ix.ix_imports.(i).im_type
  else if in_range ctx.ix.ix_funcs (i - ni) then
    func_type ctx ctx.ix.ix_funcs.(i - ni).ftype
  else error "function index %d out of range" i

let local_ty ctx i =
  if i < 0 || i >= Array.length ctx.locals then
    error "local index %d out of range" i
  else ctx.locals.(i)

let global_ty ctx i =
  if in_range ctx.ix.ix_globals i then ctx.ix.ix_globals.(i).g_type
  else error "global index %d out of range" i

(* The checks of an instruction with no intra-function control flow;
   {!instr} handles the others. *)
let basic ctx (ins : Ast.instr) =
  match ins with
  | Block _ | Loop _ | If _ | Br _ | BrIf _ | BrTable _ | Return ->
      assert false (* [instr]'s own arms *)
  | Unreachable -> set_unreachable ctx
  | Nop -> ()
  | Call i ->
      let ft = type_of_func ctx i in
      pop_list ctx ft.params;
      push_list ctx ft.results
  | CallIndirect ti ->
      if ctx.m.table = None then error "call_indirect requires a table";
      let ft = func_type ctx ti in
      pop ctx Types.I32;
      pop_list ctx ft.params;
      push_list ctx ft.results
  | Drop -> ignore (pop_any ctx)
  | Select ->
      pop ctx Types.I32;
      let a = pop_any ctx in
      let b = pop_any ctx in
      if a <> unknown && b <> unknown && a <> b then error "select type mismatch";
      push_code ctx (if a <> unknown then a else b)
  | LocalGet i -> push ctx (local_ty ctx i)
  | LocalSet i -> pop ctx (local_ty ctx i)
  | LocalTee i ->
      pop ctx (local_ty ctx i);
      push ctx (local_ty ctx i)
  | GlobalGet i -> push ctx (global_ty ctx i).g_type
  | GlobalSet i ->
      let gt = global_ty ctx i in
      if not gt.mut then error "global %d is immutable" i;
      pop ctx gt.g_type
  | I32Const _ -> push ctx Types.I32
  | I64Const _ -> push ctx Types.I64
  | F32Const _ -> push ctx Types.F32
  | F64Const _ -> push ctx Types.F64
  | IUnop (w, _) | ITestop w ->
      pop ctx (width_ty w);
      push ctx (match ins with ITestop _ -> Types.I32 | _ -> width_ty w)
  | IBinop (w, _) ->
      pop ctx (width_ty w);
      pop ctx (width_ty w);
      push ctx (width_ty w)
  | IRelop (w, _) ->
      pop ctx (width_ty w);
      pop ctx (width_ty w);
      push ctx Types.I32
  | FUnop (w, _) ->
      pop ctx (fwidth_ty w);
      push ctx (fwidth_ty w)
  | FBinop (w, _) ->
      pop ctx (fwidth_ty w);
      pop ctx (fwidth_ty w);
      push ctx (fwidth_ty w)
  | FRelop (w, _) ->
      pop ctx (fwidth_ty w);
      pop ctx (fwidth_ty w);
      push ctx Types.I32
  | Cvtop op ->
      let src, dst = cvt_sig op in
      pop ctx src;
      push ctx dst
  | Load (ty, pack, ma) ->
      let natural =
        match pack with
        | None -> num_size ty
        | Some (p, _) -> pack_bytes p
      in
      check_align ma ~natural;
      (match pack with
      | Some _ when ty <> Types.I32 && ty <> Types.I64 ->
          error "packed load of float type"
      | Some (p, _) when pack_bytes p >= num_size ty ->
          error "packed load as wide as its type"
      | _ -> ());
      pop ctx (addr_ty ctx);
      push ctx ty
  | Store (ty, pack, ma) ->
      let natural =
        match pack with None -> num_size ty | Some p -> pack_bytes p
      in
      check_align ma ~natural;
      (match pack with
      | Some _ when ty <> Types.I32 && ty <> Types.I64 ->
          error "packed store of float type"
      | Some p when pack_bytes p >= num_size ty ->
          error "packed store as wide as its type"
      | _ -> ());
      pop ctx ty;
      pop ctx (addr_ty ctx)
  | MemorySize -> push ctx (addr_ty ctx)
  | MemoryGrow ->
      pop ctx (addr_ty ctx);
      push ctx (addr_ty ctx)
  | MemoryFill ->
      let a = addr_ty ctx in
      pop ctx a; pop ctx Types.I32; pop ctx a
  | MemoryCopy ->
      let a = addr_ty ctx in
      pop ctx a; pop ctx a; pop ctx a
  | SegmentNew o ->
      require_segment ctx "segment.new" o;
      pop ctx Types.I64;
      pop ctx Types.I64;
      push ctx Types.I64
  | SegmentSetTag o ->
      require_segment ctx "segment.set_tag" o;
      pop ctx Types.I64;
      pop ctx Types.I64;
      pop ctx Types.I64
  | SegmentFree o ->
      require_segment ctx "segment.free" o;
      pop ctx Types.I64;
      pop ctx Types.I64
  | PointerSign ->
      require_cage ctx "i64.pointer_sign";
      pop ctx Types.I64;
      push ctx Types.I64
  | PointerAuth ->
      require_cage ctx "i64.pointer_auth";
      pop ctx Types.I64;
      push ctx Types.I64

(* One instruction, checked, in its prepared form. *)
let rec instr ctx (ins : Ast.instr) : Code.instr =
  match ins with
  | Block (bt, body) ->
      let outs = block_types bt in
      let body = arm ctx ~label_types:outs ~end_types:outs body in
      push_list ctx outs;
      Code.Block (List.length outs, body)
  | Loop (bt, body) ->
      let outs = block_types bt in
      (* br to a loop jumps to its start: label types are the inputs *)
      let body = arm ctx ~label_types:[] ~end_types:outs body in
      push_list ctx outs;
      Code.Loop (List.length outs, body)
  | If (bt, then_, else_) ->
      pop ctx Types.I32;
      let outs = block_types bt in
      let then_ = arm ctx ~label_types:outs ~end_types:outs then_ in
      let else_ = arm ctx ~label_types:outs ~end_types:outs else_ in
      push_list ctx outs;
      Code.If (List.length outs, then_, else_)
  | Br n ->
      let f = label ctx n in
      pop_list ctx f.label_types;
      set_unreachable ctx;
      Code.Br (resolve n f)
  | BrIf n ->
      pop ctx Types.I32;
      let f = label ctx n in
      pop_list ctx f.label_types;
      push_list ctx f.label_types;
      Code.BrIf (resolve n f)
  | BrTable (ns, default) ->
      pop ctx Types.I32;
      let d = label ctx default in
      let targets =
        Ast.array_mapi { Code.depth = 0; arity = 0 }
          (fun _ n ->
            let f = label ctx n in
            if f.label_types <> d.label_types then
              error "br_table label type mismatch";
            resolve n f)
          ns
      in
      pop_list ctx d.label_types;
      set_unreachable ctx;
      Code.BrTable (targets, resolve default d)
  | Return ->
      pop_list ctx ctx.ret;
      set_unreachable ctx;
      Code.Return (List.length ctx.ret)
  | _ ->
      basic ctx ins;
      let id = ctx.next in
      ctx.next <- id + 1;
      Code.Basic (ins, id)

(* [body] under a new innermost frame, which it leaves with the frame's
   end types popped. [Ast.array_mapi] stores left to right, so ids run
   in preorder, a then arm's before its else arm's. *)
and arm ctx ~label_types ~end_types body =
  push_frame ctx ~label_types ~end_types;
  let b = seq ctx body in
  pop_frame ctx;
  b

and seq ctx body = Ast.array_mapi Code.filler (fun _ i -> instr ctx i) body

let func ctx (f : Ast.func) : Code.func =
  let ft =
    if in_range ctx.ix.ix_types f.ftype then ctx.ix.ix_types.(f.ftype)
    else error "function type index %d out of range" f.ftype
  in
  ctx.locals <- Array.of_list (ft.params @ f.locals);
  ctx.ret <- ft.results;
  ctx.next <- 0;
  push_frame ctx ~label_types:ft.results ~end_types:ft.results;
  let body =
    try seq ctx f.body
    with Invalid msg ->
      error "in function %s: %s"
        (Option.value f.fname ~default:"<anon>")
        msg
  in
  pop_frame ctx;
  { Code.unprepared with
    body; result_arity = List.length ft.results; nbasic = ctx.next }

let prepare ?(cage = true) (m : Ast.module_) =
  let ix = Ast.index m in
  let ctx =
    { m; ix; cage; locals = [||]; ret = []; ops = Array.make 16 unknown;
      height = 0; ctrls = Label_stack.create no_frame; top = no_frame;
      next = 0 }
  in
  (* memory limits *)
  Option.iter
    (fun (mt : Types.mem_type) ->
      let range =
        match mt.mem_idx with
        | Types.Idx32 -> 65536L
        | Types.Idx64 -> Int64.shift_left 1L 48
      in
      if not (Types.limits_valid mt.mem_limits ~range) then
        error "invalid memory limits")
    m.memory;
  (* table limits: the spec's u32 range *)
  Option.iter
    (fun (tt : Types.table_type) ->
      if not (Types.limits_valid tt.tbl_limits ~range:0xffff_ffffL) then
        error "invalid table limits")
    m.table;
  (* globals *)
  List.iter
    (fun (g : Ast.global) ->
      if Values.type_of g.g_init <> g.g_type.Types.g_type then
        error "global initialiser type mismatch")
    m.globals;
  (* imports reference valid types *)
  List.iter
    (fun (im : Ast.import) ->
      if not (in_range ix.ix_types im.im_type) then
        error "import %s.%s: type index out of range" im.im_module im.im_name)
    m.imports;
  (* element segments *)
  let nfuncs = Array.length ix.ix_imports + Array.length ix.ix_funcs in
  List.iter
    (fun (e : Ast.elem) ->
      if m.table = None then error "element segment without a table";
      List.iter
        (fun fi ->
          if fi < 0 || fi >= nfuncs then
            error "element segment: function index %d out of range" fi)
        e.e_funcs)
    m.elems;
  (* data segments *)
  List.iter
    (fun (d : Ast.data) ->
      if m.memory = None then error "data segment without a memory";
      if d.d_offset < 0L then error "data segment: negative offset")
    m.datas;
  (* start function *)
  Option.iter
    (fun i ->
      let ft = type_of_func ctx i in
      if ft.params <> [] || ft.results <> [] then
        error "start function must have type [] -> []")
    m.start;
  (* exports *)
  List.iter
    (fun (ex : Ast.export) ->
      match ex.ex_desc with
      | Ast.Func_export i ->
          if i < 0 || i >= nfuncs then
            error "export %s: function index out of range" ex.ex_name
      | Ast.Mem_export i ->
          if i <> 0 || m.memory = None then
            error "export %s: memory index out of range" ex.ex_name)
    m.exports;
  (* export names are unique: an instance looks its exports up by name *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (ex : Ast.export) ->
      if Hashtbl.mem seen ex.ex_name then
        error "duplicate export name %s" ex.ex_name;
      Hashtbl.add seen ex.ex_name ())
    m.exports;
  (ix, Ast.array_mapi Code.unprepared (fun _ f -> func ctx f) m.funcs)

let check ?cage m = ignore (prepare ?cage m)

let validate ?cage m =
  match check ?cage m with () -> Ok () | exception Invalid msg -> Error msg
