(** The specification formula language.

    Component and interface specifications (paper Figures 2 and 6) describe
    conditions, effects and costs with real-valued, generally
    {e non-reversible} but {e monotone} functions of resource and property
    variables ([Node.cpu >= (T.ibw + I.ibw)/5], [M.ibw' := min(M.ibw,
    Link.lbw)]).  This module provides the AST, exact point evaluation,
    sound interval evaluation (used by optimistic resource maps), and a
    syntactic monotonicity analysis (used to derive degradable/upgradable
    tags and to justify endpoint evaluation). *)

type var = string
(** Variable names are dot-qualified: ["M.ibw"], ["node.cpu"],
    ["link.lbw"]. *)

type t =
  | Const of float
  | Var of var
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Min of t * t
  | Max of t * t

type cmp = Ge | Gt | Le | Lt | Eq

type cond = True | Cmp of cmp * t * t | And of cond * cond | Or of cond * cond

(** {1 Construction helpers} *)

val var : var -> t
val const : float -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val ( >= ) : t -> t -> cond
val ( > ) : t -> t -> cond
val ( <= ) : t -> t -> cond
val ( < ) : t -> t -> cond
val ( = ) : t -> t -> cond
val ( && ) : cond -> cond -> cond
val ( || ) : cond -> cond -> cond

(** {1 Evaluation} *)

exception Unbound_variable of var

(** Raised by {!eval_interval} when the range has no finite lower bound
    (negating, subtracting, or multiplying or dividing by a negative, an
    unbounded range): an interval's lower bound must be finite. *)
exception Unbounded_below

(** Exact evaluation at a point; the environment maps variables to values.
    @raise Unbound_variable when a variable is missing.
    @raise Division_by_zero on division by exactly 0. *)
val eval : env:(var -> float) -> t -> float

(** Exact truth of a condition at a point. *)
val holds : env:(var -> float) -> cond -> bool

(** Sound interval enclosure of the expression's range when each variable
    ranges over its interval.  Exact for expressions where every variable
    occurs once (our specification formulae); an over-approximation in
    general — which is the safe direction for {e optimistic} resource maps.
    @raise Unbound_variable when a variable is missing.
    @raise Division_by_zero when a divisor interval contains 0.
    @raise Unbounded_below when the range has no finite lower bound. *)
val eval_interval : env:(var -> Sekitei_util.Interval.t) -> t -> Sekitei_util.Interval.t

(** Satisfiability over interval bounds: [true] when some assignment
    drawing each variable independently from its interval satisfies the
    condition.  Sound in the optimistic direction: never [false] for a
    satisfiable condition; may be [true] for conditions that couple
    variables. *)
val sat : env:(var -> Sekitei_util.Interval.t) -> cond -> bool

(** {1 Analysis} *)

(** Free variables, each listed once, in first-occurrence order. *)
val vars : t -> var list

val cond_vars : cond -> var list

type monotonicity = Increasing | Decreasing | Constant | Unknown

(** Syntactic monotonicity of the expression in the given variable.
    [Increasing] means weakly increasing.  The analysis is conservative:
    [Unknown] when the variable occurs on both signs or inside a division
    denominator. *)
val monotonicity : t -> var -> monotonicity

(** Does the condition get easier to satisfy as the variable decreases?
    (conservatively computed; [None] = cannot tell).  Used by the automatic
    degradability analysis (paper section 3.1). *)
val easier_when_lower : cond -> var -> bool option

(** Constant folding and algebraic identities ([x+0], [1*x], ...). *)
val simplify : t -> t

(** {1 Syntax} *)

(** Render with minimal parentheses; [parse] of the output round-trips. *)
val to_string : t -> string

val cond_to_string : cond -> string
val pp : Format.formatter -> t -> unit
val pp_cond : Format.formatter -> cond -> unit

exception Parse_error of string

(** Parse an arithmetic expression: numbers, dotted identifiers, [+ - * /],
    [min(a,b)], [max(a,b)], parentheses.  @raise Parse_error *)
val parse : string -> t

(** Parse a condition: comparisons ([>= > <= < ==]) over expressions,
    combined with [&&] and [||] (([&&] binds tighter).  @raise Parse_error *)
val parse_cond : string -> cond
