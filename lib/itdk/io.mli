(** Text serialization of datasets, in the spirit of the ITDK release
    format: a line-oriented, diff-friendly encoding that round-trips
    everything the learning method consumes, and only that: a router's
    record holds what was measured ({!Router}). A file written while the
    generator's ground truth still rode on the record loads as before,
    its [truth], [hint] and [hosthint] lines skipped. *)

val to_string : Dataset.t -> string

val read : in_channel -> Dataset.t
(** One pass over the input, cut in place from a 64 KiB read buffer
    (grown for a longer line): the scan that finds a field's end also
    parses it, and each record lands in the router being built, its RTT
    samples packed as they are read ({!Rtts}). A plain decimal is
    parsed in the buffer: an int of at most 18 digits directly, a
    [\[-\]digits\[.digits\]] float of at most 15 digits as one exact
    division, which gives the double [float_of_string] does. Any other
    spelling goes to [int_of_string_opt]/[float_of_string_opt] on a
    copy, so a field reads as the stdlib reads it, or fails where the
    stdlib does.
    Raises [Failure "Itdk.Io.read: line N: ..."] on malformed input: an
    unknown or misplaced record, a missing or extra field, a number that
    does not parse, a coordinate out of range, a [vp] record whose id is
    outside 0..65535 (the ids {!Rtts} packs with a tick count, in 4
    bytes a sample below 256) or an earlier [vp] record already has (["duplicate VP id ID"]), a sample's VP id
    beyond 32 bits, or a router id an earlier router already has
    (["duplicate router id ID"]); a duplicate is named at the second
    one's line. Only [vp] records consult the VP id table. Router ids
    that increase cost one comparison per router to check; from the
    first one that does not, every id goes into a table. *)

val of_string : string -> Dataset.t
(** {!read} over a string, the same reader with the whole input as its
    one buffer. *)

val save : string -> Dataset.t -> unit
(** Write to a file path atomically ({!Hoiho_obs.Obs.write_channel_atomic}):
    a reader sees the old corpus or the new one, and a failed write
    leaves the old file untouched. *)

val load : string -> Dataset.t
(** {!read} from a file path; the file is closed on failure too. *)
