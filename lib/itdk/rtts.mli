(** A router's RTT samples from one measurement channel: (vp id, min RTT
    ms) pairs in observation order, packed into one immutable string in
    native byte order (the packed form never leaves the process; files
    carry text). There are three layouts, by bytes per sample:

    - 4 bytes: one 32-bit word holding the VP id in its low 8 bits and,
      in its high 24, a count [k] of 10{^-4} ms ticks, read back as
      [float k /. 1e4]. The corpus text keeps four decimals, and the
      paper's hundred-odd VPs and RTTs below 1677.7216 ms fit here.
    - 6 bytes after one tag byte: the VP id as a uint16, then the tick
      count as an int32.
    - 12 bytes after one tag byte: the VP id as an int32, then the
      RTT's float64 bits. Values that hold unrounded generator output,
      a negative, [-0.0], non-finite or five-decimal RTT, or a VP id
      outside [0, 65535] take this one.

    A sample fits the 4-byte layout when [0 <= vp < 256] and its RTT is
    bit-identical to [float k /. 1e4] for some [0 <= k < 2{^24}]; it
    fits the 6-byte one when [0 <= vp < 65536] and such a [k] is below
    [2{^31}]; every sample fits the 12-byte one. A value takes the
    narrowest layout that every one of its samples fits, the empty
    value the 4-byte one. The layout depends only on the samples, never
    on how they arrived, and every sample reads back bit for bit. So
    two values are structurally equal exactly when they hold the same
    samples bit for bit, and [=] and [compare] on routers keep working.
    A 4-byte value has no tag, so its length is a multiple of 4; the
    tag byte of the other two holds their width, so their lengths are
    odd, and the layout is read in constant time.

    A [(int * float) list] would cost 64 bytes per sample (cons cell,
    tuple, boxed float) and three heap blocks the major GC marks on
    every cycle. Responsive routers carry a sample from nearly every VP,
    so at paper scale such lists would be most of a loaded corpus's
    heap.

    There is no mutator: a value is read-only once built, so routers
    can be shared across domains as they are (DESIGN.md §5). *)

type t

val empty : t

val of_list : (int * float) list -> t
(** Raises [Invalid_argument] when a VP id does not fit in 32 bits. *)

val to_list : t -> (int * float) list

val length : t -> int
val is_empty : t -> bool

val vp : t -> int -> int
(** [vp t i] is the VP id of sample [i]. *)

val iter : (int -> float -> unit) -> t -> unit
val for_all : (int -> float -> bool) -> t -> bool
val filter : (int -> float -> bool) -> t -> t

val map : (int -> float -> int * float) -> t -> t
(** Rewrites each sample in order. *)

val find_opt : t -> int -> float option
(** The RTT of the first sample from the given VP. *)

val min : t -> (int * float) option
(** The first sample with the smallest RTT. *)

val first_below : t -> slack:float -> Float.Array.t -> int
(** [first_below t ~slack bound] is the index of the first sample [i]
    whose VP id falls outside [bound] or whose RTT plus [slack] is below
    [bound.(vp t i)]; [-1] when there is none. A [nan] bound is never
    met, so it marks an id the caller must look at. A call allocates
    nothing, which is why RTT-consistency testing goes through it. *)

type builder
(** Accumulates samples; reusable after {!clear}, so one builder serves
    every router a reader builds. It starts in the 4-byte layout; a
    sample that does not fit the layout so far re-encodes the samples
    before it in the narrowest layout that it fits. *)

val builder : unit -> builder

val add : builder -> int -> float -> unit
(** Raises [Invalid_argument] when the VP id does not fit in 32 bits. *)

val add_ticks : builder -> int -> int -> unit
(** [add_ticks b vp k] builds what [add b vp (float k /. 1e4)] builds,
    for any [k]. While the samples so far fit the 4- or 6-byte layout
    and this one fits it too, it stores [k] as it is, with no float,
    division or exactness test: the reader hands it every RTT written
    with at most four decimals. Raises [Invalid_argument] as {!add}
    does. *)

val contents : builder -> t
(** An exact-size copy of the samples added since the last {!clear}. *)

val clear : builder -> unit
