package repro.core.profile

/** Column statistics collected by the profiler (Alg. 2, `collect_stats`).
  * Computed from the profiling sample — the paper's profiler likewise
  * works on column samples for everything but exact row/NaN counts.
  */
object ColumnStats {

  private val trueish = Set("true", "t", "yes", "y", "1")

  /** Whether a boolean cell reads as true, ignoring case and the
    * surrounding whitespace.
    */
  def isTrue(v: String): Boolean = trueish.contains(v.trim.toLowerCase)

  /** Ratio of boolean-true values (Alg. 3 compares booleans by this). */
  def trueRatio(sample: Seq[String]): Double = {
    val vals = sample.filter(v => v != null && v.nonEmpty)
    if (vals.isEmpty) 0.0
    else vals.count(isTrue).toDouble / vals.size
  }

  /** (mean, std, min, max) over the numeric-parsable sample values;
    * all zero when nothing parses.
    */
  def numericStats(sample: Seq[String]): (Double, Double, Double, Double) = {
    val nums = sample.flatMap { v =>
      try Option(v).map(_.trim.toDouble).filterNot(d => d.isNaN || d.isInfinite)
      catch { case _: NumberFormatException => None }
    }
    if (nums.isEmpty) (0.0, 0.0, 0.0, 0.0)
    else {
      val mean = nums.sum / nums.size
      val std  = math.sqrt(nums.map(v => (v - mean) * (v - mean)).sum / nums.size)
      (mean, std, nums.min, nums.max)
    }
  }
}
