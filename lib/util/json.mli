(** The repository's one JSON codec: a value type, a strict
    recursive-descent parser, a stable compact printer, and a decoding
    vocabulary that type-checks untrusted documents against a schema.

    Every JSON document the tree writes — model snapshots, event
    streams, metrics snapshots, traces, calibration reports, the
    daemon's [/debug] bodies — is printed by {!to_string}, and every
    one it reads is parsed by {!parse} and checked by the decoders
    below, so "everything we write, we can read" holds by
    construction.

    The printer and parser round-trip: [parse (to_string v) = Ok v] for
    every value this module can produce. Floats are printed with enough
    digits ([%.17g]) to reparse to the identical bit pattern; integers
    stay integers ([Int] never silently becomes [Float]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in order; first binding wins *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). Object keys keep
    the order given — callers wanting stable output sort before
    printing. Strings are escaped per RFC 8259; non-finite floats
    render as [null] (JSON has no representation for them). *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document. The whole input must be
    consumed (trailing whitespace allowed); anything else — truncation,
    trailing garbage, bad escapes, malformed numbers — is an [Error]
    naming the byte offset. Never raises. *)

val kind : t -> string
(** "null", "bool", "int", "float", "string", "list" or "object" — for
    schema-error messages. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on absent field or non-object. *)

val equal : t -> t -> bool
(** Structural equality, with object fields compared order-insensitively
    (duplicate keys resolved to the first binding). *)

(** {1 Decoding}

    A decoder checks one value at a path and either returns the typed
    result or an {!error} naming where the document went wrong, e.g.
    [$.suffixes[3].cands[0].source]. Decoders never raise. *)

type path
(** A position in a document, rendered as [$], [$.field] or
    [$.list[2]]. Built as decoders descend; rendered only on error. *)

val root : path
(** The document itself, [$]. *)

type error = { path : string; expected : string; got : string }
(** The one decode error shape: the rendered path, what the schema
    expected there and what the document held. *)

val error_to_string : error -> string
(** ["PATH: expected EXPECTED, got GOT"]. *)

type 'a decoder = path -> t -> ('a, error) result

val fail : path -> expected:string -> got:string -> ('a, error) result
(** An error at [path], for checks a decoder makes beyond the
    combinators below. *)

val int : int decoder
val number : float decoder
(** A [Float], or an [Int] widened to float. *)

val string : string decoder
val bool : bool decoder

val list : 'a decoder -> 'a list decoder
(** Every item, decoded at [PATH[i]]; the first failing item is the
    error. *)

val pair : 'a decoder -> 'b decoder -> ('a * 'b) decoder
(** A 2-element list, its items decoded at [PATH[0]] and [PATH[1]]. *)

val field : string -> 'a decoder -> 'a decoder
(** [field name d] decodes the required field [name] of an object at
    [PATH.name]; an absent field is an error there, a non-object one at
    [PATH]. *)

val field_opt : string -> 'a decoder -> 'a option decoder
(** Like {!field}, but an absent field is [None]. A present one must
    decode, [null] included. *)

val enum : string -> (string -> 'a option) -> 'a decoder
(** [enum expected of_wire] decodes a string naming one of a fixed set
    of values; a name [of_wire] does not know is an error naming
    [expected] and the string. *)

val check : string -> ('a -> bool) -> 'a decoder -> 'a decoder
(** [check expected ok d] decodes with [d], then rejects a value [ok]
    refuses with an error at the same path naming [expected] and the
    value's JSON text. *)

(** {1 Files} *)

val read_file : max_bytes:int -> what:string -> string -> (string, string) result
(** The whole contents of a file, refused before reading when it is
    larger than [max_bytes]: ["PATH: N bytes exceeds the limit of
    MAX_BYTES for WHAT"]. An unreadable file is [Error] with the system
    message. The channel is closed on every path. *)
