(** WebAssembly types (spec §2.3), extended with the memory64 index-type
    distinction the Cage extension builds on. *)

(** Number types. Cage does not use reference types, and vector types are
    out of scope. *)
type num_type = I32 | I64 | F32 | F64

type val_type = num_type

let string_of_num_type = function
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"

let pp_num_type ppf t = Format.pp_print_string ppf (string_of_num_type t)
let pp_val_type = pp_num_type

(** Function types: parameter and result lists. *)
type func_type = { params : val_type list; results : val_type list }

let func_type_equal a b = a.params = b.params && a.results = b.results

(** Memory index type: wasm32 uses 32-bit indices (and can be sandboxed
    with guard pages); wasm64/memory64 uses 64-bit indices and normally
    needs explicit bounds checks — the situation Cage's MTE sandboxing
    improves. *)
type idx_type = Idx32 | Idx64

let string_of_idx_type = function Idx32 -> "i32" | Idx64 -> "i64"

(** The value type used to address a memory of the given index type. *)
let addr_type = function Idx32 -> I32 | Idx64 -> I64

(** Limits are expressed in units that depend on context (pages for
    memories, entries for tables). *)
type limits = { min : int64; max : int64 option }

let limits_valid { min; max } ~range =
  min >= 0L && min <= range
  && match max with None -> true | Some m -> m >= min && m <= range

(** Memory types. [mem_idx] selects wasm32 vs memory64 addressing. *)
type mem_type = { mem_idx : idx_type; mem_limits : limits }

let page_size = 65536L
(** The wasm page size: 64 KiB. *)

(** Table types: function references only (Cage's threat model keeps the
    wasm function-table design). *)
type table_type = { tbl_limits : limits }

(** Global types. *)
type global_type = { mut : bool; g_type : val_type }

(** External (import/export) types. *)
type extern_type =
  | Extern_func of func_type
  | Extern_table of table_type
  | Extern_mem of mem_type
  | Extern_global of global_type
