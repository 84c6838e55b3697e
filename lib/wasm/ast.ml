(** Abstract syntax of (extended) WebAssembly.

    The instruction set covers the full wasm MVP numeric/control/memory
    core (minus SIMD and reference types), the memory64 extension, and
    the five Cage instructions of paper Fig. 7:

    - [segment.new o], [segment.set_tag o], [segment.free o]
    - [i64.pointer_sign], [i64.pointer_auth] *)

type width = W32 | W64

type iunop = Clz | Ctz | Popcnt
type ibinop =
  | Add | Sub | Mul | DivS | DivU | RemS | RemU
  | And | Or | Xor | Shl | ShrS | ShrU | Rotl | Rotr

type irelop = Eq | Ne | LtS | LtU | GtS | GtU | LeS | LeU | GeS | GeU

type funop = Neg | Abs | Ceil | Floor | Trunc | Nearest | Sqrt
type fbinop = FAdd | FSub | FMul | FDiv | FMin | FMax | Copysign
type frelop = FEq | FNe | FLt | FGt | FLe | FGe

(** Conversions, named [<dst>.<op>_<src>] as in the spec. *)
type cvtop =
  | I32WrapI64
  | I64ExtendI32S
  | I64ExtendI32U
  | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U
  | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U
  | F32ConvertI32S | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U
  | F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U
  | F32DemoteF64
  | F64PromoteF32
  | I32ReinterpretF32 | I64ReinterpretF64
  | F32ReinterpretI32 | F64ReinterpretI64

(** Storage size for loads/stores narrower than the value type. *)
type pack_size = Pack8 | Pack16 | Pack32
type extension = SX | ZX

type memarg = { offset : int64; align : int }

(** Block types: Cage programs only need the MVP shorthand forms. *)
type block_type = ValBlock of Types.val_type option

type instr =
  | Unreachable
  | Nop
  | Block of block_type * instr list
  | Loop of block_type * instr list
  | If of block_type * instr list * instr list
  | Br of int
  | BrIf of int
  | BrTable of int list * int
  | Return
  | Call of int
  | CallIndirect of int  (** type index; table 0 *)
  | Drop
  | Select
  | LocalGet of int
  | LocalSet of int
  | LocalTee of int
  | GlobalGet of int
  | GlobalSet of int
  | I32Const of int32
  | I64Const of int64
  | F32Const of float
  | F64Const of float
  | IUnop of width * iunop
  | IBinop of width * ibinop
  | ITestop of width  (** eqz *)
  | IRelop of width * irelop
  | FUnop of width * funop
  | FBinop of width * fbinop
  | FRelop of width * frelop
  | Cvtop of cvtop
  | Load of Types.num_type * (pack_size * extension) option * memarg
  | Store of Types.num_type * pack_size option * memarg
  | MemorySize
  | MemoryGrow
  | MemoryFill  (** bulk-memory: dst value len -> () *)
  | MemoryCopy  (** bulk-memory: dst src len -> () *)
  (* --- Cage extension (paper Fig. 7) --- *)
  | SegmentNew of int64  (** static offset [o]: ptr len -> tagged ptr *)
  | SegmentSetTag of int64  (** ptr tagged-ptr len -> () *)
  | SegmentFree of int64  (** tagged-ptr len -> () *)
  | PointerSign  (** i64 -> i64 *)
  | PointerAuth  (** i64 -> i64, traps on bad signature *)

(** A function definition: its type index, extra locals, and body. *)
type func = {
  ftype : int;
  locals : Types.val_type list;
  body : instr list;
  fname : string option;  (** for diagnostics *)
}

type export_desc = Func_export of int | Mem_export of int
type export = { ex_name : string; ex_desc : export_desc }

(** An import of a host function. *)
type import = { im_module : string; im_name : string; im_type : int }

type global = { g_type : Types.global_type; g_init : Values.t }

(** Active element segment: function indices placed in the table at
    instantiation. *)
type elem = { e_offset : int64; e_funcs : int list }

(** Active data segment. *)
type data = { d_offset : int64; d_bytes : string }

type module_ = {
  types : Types.func_type list;
  imports : import list;  (** imported functions come first in index space *)
  funcs : func list;
  table : Types.table_type option;
  memory : Types.mem_type option;
  globals : global list;
  exports : export list;
  elems : elem list;
  datas : data list;
  start : int option;
}

let empty_module = {
  types = [];
  imports = [];
  funcs = [];
  table = None;
  memory = None;
  globals = [];
  exports = [];
  elems = [];
  datas = [];
  start = None;
}

(** [f i x] of every element [x] of [l] at position [i], in order, as an
    array that starts out holding [filler]. OCaml 5.1 allocates an array
    of more than 256 words in the major heap and, when the value it is
    made with is young, first runs a minor collection so that the new
    array holds no young pointer; [Array.of_list], [init] and [map] make
    theirs with the first element, which is usually young. A static
    [filler] (a constant constructor or record, a closed top-level
    function) never is, so the array is made without a collection and
    each element is stored into it after. *)
let array_mapi filler f l =
  let a = Array.make (List.length l) filler in
  List.iteri (fun i x -> Array.unsafe_set a i (f i x)) l;
  a

(** A module's index spaces as arrays, built once per module, so that
    validation, preparation, lowering, instantiation and the analyzer
    look a type, function, import or global up in O(1) instead of
    walking a list at every use. Function indices count the imports
    first, then the module's own functions. *)
type index = {
  ix_types : Types.func_type array;
  ix_imports : import array;
  ix_funcs : func array;
  ix_globals : global array;
}

let index (m : module_) =
  let id _ x = x in
  {
    ix_types = array_mapi { Types.params = []; results = [] } id m.types;
    ix_imports = array_mapi { im_module = ""; im_name = ""; im_type = 0 } id m.imports;
    ix_funcs = array_mapi { ftype = 0; locals = []; body = []; fname = None } id m.funcs;
    ix_globals =
      array_mapi
        { g_type = { Types.mut = false; g_type = Types.I32 }; g_init = Values.I32 0l }
        id m.globals;
  }

(** The type of function index [i] of a validated module. *)
let func_type_at ix i =
  let ni = Array.length ix.ix_imports in
  ix.ix_types.(if i < ni then ix.ix_imports.(i).im_type else ix.ix_funcs.(i - ni).ftype)

(** The printable name of function index [i] of a validated module: an
    import's field name, else the name the front end recorded, else
    [f<i>]. *)
let func_name ix i =
  let ni = Array.length ix.ix_imports in
  if i < ni then ix.ix_imports.(i).im_name
  else match ix.ix_funcs.(i - ni).fname with Some n -> n | None -> Printf.sprintf "f%d" i
