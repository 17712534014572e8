package repro.substrate.ml

import org.apache.spark.sql.Row

/** Numeric cells of collected rows, for the driver-side learner and baselines. */
private[substrate] object Cells {

  /** Cell `j` of `r` as a `Double`; a null or non-numeric cell throws. */
  def numAt(r: Row, j: Int): Double = r.get(j) match {
    case d: java.lang.Double  => d
    case f: java.lang.Float   => f.toDouble
    case i: java.lang.Integer => i.toDouble
    case l: java.lang.Long    => l.toDouble
    case s: String            => s.toDouble
    case other                => throw new IllegalArgumentException(s"non-numeric $other")
  }
}
