(** Small statistics helpers used by the experiment harnesses: sample
    accumulators, confidence intervals and percentile extraction. *)

type t
(** Streaming accumulator over float samples (Welford's algorithm). *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** Mean of the samples added so far; 0 for an empty accumulator. *)

val variance : t -> float
(** Unbiased sample variance; 0 when fewer than two samples. *)

val min : t -> float
(** Smallest sample; [infinity] when empty. *)

val max : t -> float
(** Largest sample; [neg_infinity] when empty. *)

val half_ci95 : t -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean ([1.96 * stddev / sqrt n]); 0 when fewer than two samples. *)

val merge : t -> t -> t
(** Combine two accumulators into a fresh one (parallel Welford / Chan
    combine): the result is exactly what one accumulator fed every sample
    of both inputs would hold.  Neither input is modified. *)

val pp : t Fmt.t
(** [n=… mean=… sd=… min=… max=…] — the one formatting path shared by
    metric snapshots and bench reports; prints [n=0] when empty. *)

val summary : t -> string
(** {!pp} rendered to a string. *)

val percentile : float array -> p:float -> float
(** [percentile a ~p] returns the [p]-th percentile ([0 <= p <= 100]) of the
    samples in [a] using linear interpolation.  [a] is not modified.  Raises
    [Invalid_argument] on an empty array. *)

val mean_of : float list -> float
(** Mean of a list; raises [Invalid_argument] on an empty list. *)
