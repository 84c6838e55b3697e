(** WAT-style text format: printer and parser.

    The dialect is the flat (non-folded) instruction syntax, extended
    with the Cage instructions under their paper names ([segment.new],
    [segment.set_tag], [segment.free], [i64.pointer_sign],
    [i64.pointer_auth]). [parse (to_string m)] equals [m] (function
    debug names included), so [.wat] files are a first-class
    interchange format for the toolchain ([cagec --emit-wat],
    [cage_run file.wat]). *)

exception Parse_error of string

val instr : indent:int -> Format.formatter -> Ast.instr -> unit
(** Print one instruction (recursively for blocks). Every mnemonic of an
    instruction with no immediate but a memarg comes from {!Opcode}.
    @raise Invalid_argument on a packed load or store that has no
    mnemonic ([i32.load32_s], [f32.store8], ...). *)

val module_ : Format.formatter -> Ast.module_ -> unit
(** Print a whole module. *)

val to_string : Ast.module_ -> string

val parse : string -> Ast.module_
(** Parse a module in the dialect {!module_} prints (supports [;;]
    comments and [\xx] string escapes). Malformed input raises nothing
    but [Parse_error]: a malformed number, an index beyond [max_int], an
    alignment that is not a power of two and a bad escape are all
    malformed.
    @raise Parse_error on malformed input. The result is {e not}
    validated. *)
