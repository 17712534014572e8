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

  /** The sample without its blank cells: null, empty or whitespace
    * only. Type inference, the true ratio and CoLR read only these.
    */
  def nonBlank(sample: Seq[String]): Seq[String] =
    sample.filter(v => v != null && v.trim.nonEmpty)

  /** Ratio of boolean-true values among the non-blank ones (Alg. 3
    * compares booleans by this).
    */
  def trueRatio(sample: Seq[String]): Double = {
    val vals = nonBlank(sample)
    if (vals.isEmpty) 0.0
    else vals.count(isTrue).toDouble / vals.size
  }

  /** A cell as a finite number: None when it is null, does not parse,
    * or is NaN or infinite.
    */
  def finiteDouble(v: String): Option[Double] =
    try Option(v).map(_.trim.toDouble).filterNot(d => d.isNaN || d.isInfinite)
    catch { case _: NumberFormatException => None }

  /** (mean, std, min, max) over the numeric-parsable sample values;
    * all zero when nothing parses.
    */
  def numericStats(sample: Seq[String]): (Double, Double, Double, Double) = {
    val nums = sample.flatMap(finiteDouble)
    if (nums.isEmpty) (0.0, 0.0, 0.0, 0.0)
    else {
      val mean = nums.sum / nums.size
      val std  = math.sqrt(nums.map(v => (v - mean) * (v - mean)).sum / nums.size)
      (mean, std, nums.min, nums.max)
    }
  }
}
