package repro.moo

import scala.util.Random
import repro.model.QueryModels
import repro.params.{Sampling, SparkParams, ThetaC, ThetaP, ThetaS}
import repro.moo.Pareto.Sol

/** Hierarchical MOO with Constraints — the paper's compile-time optimizer
  * (§5.1, Algorithms 1–4).
  *
  * The large fine-grained problem over `(θc, {θp}, {θs})` is broken into one
  * small problem per subQ under the constraint that all subQs share `θc`:
  *
  *  1. *Effective-set generation* (Algorithm 1): sample `θc` candidates,
  *     cluster them, solve the per-subQ `θp⊕θs` MOO only for each cluster
  *     representative, assign those optima to all members, then enrich the
  *     `θc` population by crossover (Appendix C.1) and re-assign.
  *  2. *DAG aggregation*: recover query-level Pareto solutions from
  *     subQ-level ones; the DAG reduces to a list because both objectives
  *     sum over subQs (§5.1.2). Three variants: exact divide-and-conquer
  *     (HMOOC1), weighted-sum approximation (HMOOC2), and boundary-based
  *     approximation via per-`θc` extreme points (HMOOC3).
  *  3. *WUN recommendation* (via [[MooResult.recommend]]).
  */
object Hmooc {

  /** Aggregation variant selector. */
  sealed trait Aggregation
  case object DivideAndConquer extends Aggregation // HMOOC1
  case object WsApprox         extends Aggregation // HMOOC2
  case object Boundary         extends Aggregation // HMOOC3

  final case class Settings(
      nInitC: Int = 96,
      nClusters: Int = 16,
      nPool: Int = 224,
      nEnrich: Int = 48,
      aggregation: Aggregation = Boundary,
      seed: Long = 17L)

  /** One subQ-level solution: objectives + index into the θp⊕θs pool. */
  final case class SubSol(lat: Double, cost: Double, poolIdx: Int)

  /** One θc candidate with its per-subQ effective solution sets. */
  final case class CandSols(cU: Array[Double], perSubQ: Vector[Vector[SubSol]])

  /** Splits a pool entry into its (θp, θs) unit slices. */
  type PoolSplit = Int => (Array[Double], Array[Double])

  // --------------------------------------------------------------------- //

  /** Simple deterministic k-means over unit vectors (the `cluster` call of
    * Algorithm 1), 10 Lloyd iterations. Returns (centroids, assignment of
    * each input).
    */
  def kmeans(points: Vector[Array[Double]], k: Int, seed: Long)
      : (Vector[Array[Double]], Vector[Int]) = {
    require(points.nonEmpty, "kmeans over empty set")
    val kk = math.min(k, points.size)
    val rnd = new Random(seed)
    var centroids = rnd.shuffle(points).take(kk).map(_.clone())
    var assign = points.map(nearest(centroids, _))
    for (_ <- 1 to 10) {
      centroids = centroids.indices.map { ci =>
        val members = points.indices.filter(assign(_) == ci)
        if (members.isEmpty) centroids(ci)
        else {
          val c = new Array[Double](points.head.length)
          members.foreach { mi => val p = points(mi); for (j <- c.indices) c(j) += p(j) / members.size }
          c
        }
      }.toVector
      assign = points.map(nearest(centroids, _))
    }
    (centroids, assign)
  }

  /** Index of the centroid nearest to `p` in squared Euclidean distance
    * (the first one on a tie).
    */
  private def nearest(centroids: Vector[Array[Double]], p: Array[Double]): Int =
    centroids.indices.minBy { ci =>
      val c = centroids(ci)
      var d = 0.0; var j = 0
      while (j < p.length) { val t = p(j) - c(j); d += t * t; j += 1 }
      d
    }

  /** θc crossover enrichment (Appendix C.1): random single-point crossover
    * pairs over the existing population, keeping only unseen children.
    */
  def crossover(pop: Vector[Array[Double]], n: Int, seed: Long): Vector[Array[Double]] = {
    if (pop.size < 2) return Vector.empty
    val rnd = new Random(seed)
    val out = Vector.newBuilder[Array[Double]]
    var made = 0
    var tries = 0
    val seen = collection.mutable.Set(pop.map(_.toVector): _*)
    while (made < n && tries < n * 10) {
      val a = pop(rnd.nextInt(pop.size))
      val b = pop(rnd.nextInt(pop.size))
      val cut = 1 + rnd.nextInt(a.length - 1)
      val child = a.take(cut) ++ b.drop(cut)
      if (seen.add(child.toVector)) { out += child; made += 1 }
      tries += 1
    }
    out.result()
  }

  /** The Spark-default `θp ⊕ θs` values as a unit vector (always kept in the
    * pool so the search can fall back to stock behaviour).
    */
  def defaultPoolEntry: Array[Double] = (ThetaP.default.toUnit ++ ThetaS.default.toUnit).toArray

  // --------------------------------------------------------------------- //

  /** Solve the compile-time problem for the query wrapped by `qm`. */
  def solve(qm: QueryModels, settings: Settings = Settings()): MooResult = {
    val t0 = System.nanoTime()
    val s = settings
    val m = qm.m
    val dPs = SparkParams.dP + SparkParams.dS

    val pool: Vector[Array[Double]] =
      defaultPoolEntry +: Sampling.latinHypercube(s.nPool - 1, dPs, s.seed)
        .map(u => Sampling.refine(u).toArray)
    val split: PoolSplit =
      idx => (pool(idx).slice(0, SparkParams.dP), pool(idx).slice(SparkParams.dP, dPs))

    // 1. Initial θc candidates + clustering.
    val initC = Sampling.latinHypercube(s.nInitC, SparkParams.dC, s.seed + 1)
      .map(u => Sampling.refine(u).toArray)
    val (reps, _) = kmeans(initC, s.nClusters, s.seed + 2)

    // 2. Per-representative θp⊕θs MOO (optimize_p_moo): Pareto-optimal pool
    // indices per (rep, subQ) — Proposition 5.1 justifies keeping only these.
    val repOpt: Vector[Vector[Vector[Int]]] = reps.map { rep =>
      val cTheta = ThetaC.fromUnit(rep.toVector)
      val objs = Array.ofDim[(Double, Double)](m, pool.size)
      pool.indices.foreach { pi =>
        val unit19 = rep ++ pool(pi)
        var i = 0
        while (i < m) { objs(i)(pi) = qm.subQObjectives(i, unit19, cTheta); i += 1 }
      }
      Vector.tabulate(m) { i =>
        Pareto.skyline(pool.indices.toVector.map(pi => Sol(objs(i)(pi)._1, objs(i)(pi)._2, pi)))
          .map(_.payload)
      }
    }

    // assign_opt_p: evaluate each candidate at its representative's optimal
    // θp⊕θs entries (the clustering hypothesis of §5.1.1).
    def assignOptP(cands: Vector[Array[Double]]): Vector[CandSols] =
      cands.map { cU =>
        val r = nearest(reps, cU)
        val cTheta = ThetaC.fromUnit(cU.toVector)
        CandSols(cU, Vector.tabulate(m) { i =>
          repOpt(r)(i).map { pi =>
            val (lat, cost) = qm.subQObjectives(i, cU ++ pool(pi), cTheta)
            SubSol(lat, cost, pi)
          }
        })
      }

    val initial = assignOptP(initC)
    val enriched = assignOptP(crossover(initC, s.nEnrich, s.seed + 3))
    val all = initial ++ enriched

    // 3. DAG aggregation → query-level Pareto front.
    val solutions: Vector[Sol[FineConfig]] = s.aggregation match {
      case Boundary         => all.flatMap(aggregateBoundary(_, split))
      case DivideAndConquer => all.flatMap(aggregateDivide(_, split))
      case WsApprox         => all.flatMap(aggregateWs(_, 11, split)) // MO-WS's 11 pairs
    }
    MooResult(Pareto.skyline(solutions), (System.nanoTime() - t0) / 1e9)
  }

  // ---- DAG aggregation variants ---------------------------------------- //

  private def fine(cand: CandSols, sel: Vector[Int], split: PoolSplit): FineConfig = {
    val parts = sel.map(split)
    FineConfig(cand.cU, parts.map(_._1), parts.map(_._2))
  }

  /** HMOOC3: per θc, k extreme points (best query-level value per objective,
    * Propositions 5.2/5.3).
    */
  def aggregateBoundary(cand: CandSols, split: PoolSplit): Vector[Sol[FineConfig]] = {
    def extreme(pick: SubSol => Double): Sol[FineConfig] = {
      val sels = cand.perSubQ.map(_.minBy(pick))
      Sol(sels.map(_.lat).sum, sels.map(_.cost).sum, fine(cand, sels.map(_.poolIdx), split))
    }
    Vector(extreme(_.lat), extreme(_.cost))
  }

  /** HMOOC1: exact divide-and-conquer merge (Algorithms 2–3) — Minkowski
    * sum of the halves' fronts, keeping the non-dominated combinations.
    */
  def aggregateDivide(cand: CandSols, split: PoolSplit): Vector[Sol[FineConfig]] = {
    def rec(lists: Vector[Vector[SubSol]]): Vector[(Double, Double, Vector[Int])] =
      if (lists.size == 1)
        Pareto.skyline(lists.head.map(ss => Sol(ss.lat, ss.cost, Vector(ss.poolIdx))))
          .map(s => (s.f1, s.f2, s.payload))
      else {
        val (h, r) = lists.splitAt(lists.size / 2)
        val left = rec(h); val right = rec(r)
        val merged = for (a <- left; b <- right)
          yield Sol(a._1 + b._1, a._2 + b._2, a._3 ++ b._3)
        Pareto.skyline(merged).map(s => (s.f1, s.f2, s.payload))
      }
    rec(cand.perSubQ).map { case (f1, f2, sel) => Sol(f1, f2, fine(cand, sel, split)) }
  }

  /** HMOOC2: weighted-sum over the subQ list (Algorithm 4) — for each
    * weight pair, pick each subQ's argmin of the normalized weighted sum
    * and add up. The normalization scale must be *shared* across subQs
    * (query-level objective ranges): a per-subQ scale would apply a
    * different affine map to each term and void Lemma 1's guarantee that
    * every returned point is query-level Pareto optimal.
    */
  def aggregateWs(cand: CandSols, nWeights: Int, split: PoolSplit): Vector[Sol[FineConfig]] = {
    val weights = Sampling.weightPairs(nWeights)
    val latScale = math.max(1e-12,
      cand.perSubQ.map(sols => sols.map(_.lat).max - sols.map(_.lat).min).sum)
    val costScale = math.max(1e-12,
      cand.perSubQ.map(sols => sols.map(_.cost).max - sols.map(_.cost).min).sum)
    weights.map { case (wl, wc) =>
      val sels = cand.perSubQ.map { sols =>
        sols.minBy(ss => wl * ss.lat / latScale + wc * ss.cost / costScale)
      }
      Sol(sels.map(_.lat).sum, sels.map(_.cost).sum, fine(cand, sels.map(_.poolIdx), split))
    }
  }
}
