package repro.substrate.baselines

import scala.collection.mutable

import repro.data.{Lake, LakeTable}
import repro.substrate.text.{Ner, Tokenizer}

/** SANTOS-style table-union search (re-implementation at the granularity
  * the paper describes, §6.1.2):
  *
  *  - preprocessing matches *every cell value* of every table against an
  *    open KB (our synthetic YAGO: the NER dictionaries with semantic
  *    types) and a synthesized KB built from value co-occurrences, then
  *    derives per-table column-relationship semantics by iterating over
  *    value pairs of column pairs;
  *  - a query looks up candidate tables in the two KB indices by the
  *    query table's column relationships, then scores each candidate by
  *    granular (value-overlap) matching.
  *
  * Value-granular work is what makes SANTOS the slowest system in
  * Table 2; the per-pair caps below are the scaled-down analogue of its
  * published implementation limits.
  */
final class SantosLike {
  private val valuesPerColumn = 120 // values of a column matched against the KBs

  /** Column semantic signature: KB type histogram + top values. */
  private case class ColSig(semType: String, values: Set[String])

  /** relationship key → tables containing it (the two KB indices). */
  private val openKbIndex  = mutable.Map.empty[String, mutable.Set[String]]
  private val synthKbIndex = mutable.Map.empty[String, mutable.Set[String]]
  private val tableSigs    = mutable.Map.empty[String, Seq[ColSig]]
  private val tableRels    = mutable.Map.empty[String, Set[String]]

  /** Open-KB lookup: the semantic type of one cell value (linear in the
    * value's tokens, executed for every cell — the expensive part).
    */
  private def kbType(value: String): String =
    Ner.entityType(value).getOrElse {
      val t = value.trim
      if (t.isEmpty) "empty"
      else if (t.forall(c => c.isDigit || c == '.' || c == '-' || c == '+')) "numeric"
      else if (Tokenizer.tokenize(t).nonEmpty) "text"
      else "opaque"
    }

  private def columnSignature(values: Seq[String]): ColSig = {
    val sample = values.filter(_ != null).take(valuesPerColumn)
    if (sample.isEmpty) return ColSig("empty", Set.empty)
    val types = sample.map(kbType)
    val semType = types.groupBy(identity).maxBy { case (t, g) => (g.size, t) }._1
    ColSig(semType, sample.map(_.toLowerCase).toSet)
  }

  /** Column-pair relationship semantics: the (typeA, typeB) relationship
    * plus a synthesized-KB key from value-pair co-occurrence — computed
    * by iterating value pairs (capped).
    */
  private def relationships(sigs: Seq[ColSig], values: Seq[Seq[String]]): Set[String] = {
    val out = mutable.Set.empty[String]
    val n   = sigs.size
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        out += s"rel:${sigs(i).semType}|${sigs(j).semType}"
        // synthesized KB: hash-bucketed co-occurrence signature over
        // all (capped) value pairs of the two columns
        var acc = 0L
        val vi = values(i); val vj = values(j)
        var a = 0
        while (a < vi.length) {
          var b = 0
          while (b < vj.length) {
            val va = vi(a); val vb = vj(b)
            if (va != null && vb != null)
              acc += (va.hashCode.toLong * 31 + vb.hashCode) & 0xffff
            b += 1
          }
          a += 1
        }
        out += s"syn:${sigs(i).semType}|${sigs(j).semType}|${(acc % 97).toInt}"
        j += 1
      }
      i += 1
    }
    out.toSet
  }

  private def columnsOf(t: LakeTable): Seq[Seq[String]] =
    t.columns.indices.map(ci => t.rows.iterator.map(_(ci)).take(valuesPerColumn).toSeq)

  /** Offline preprocessing over the whole lake. */
  def preprocess(lake: Lake): Unit = {
    lake.tables.foreach { t =>
      val cols = columnsOf(t)
      val sigs = cols.map(columnSignature)
      val rels = relationships(sigs, cols)
      tableSigs(t.name) = sigs
      tableRels(t.name) = rels
      rels.foreach { r =>
        val idx = if (r.startsWith("rel:")) openKbIndex else synthKbIndex
        idx.getOrElseUpdate(r, mutable.Set.empty) += t.name
      }
    }
  }

  /** Online top-k unionable query: candidate lookup in the two KB
    * indices, then granular (value-overlap) scoring per candidate.
    */
  def queryUnionable(lake: Lake, tableName: String, k: Int): Seq[(String, Double)] = {
    val query = lake.tables.find(_.name == tableName)
      .getOrElse(throw new NoSuchElementException(tableName))
    val qCols = columnsOf(query)
    val qSigs = tableSigs.getOrElse(tableName, qCols.map(columnSignature))
    val qRels = tableRels.getOrElse(tableName, relationships(qSigs, qCols))

    val candidates = qRels.iterator.flatMap { r =>
      val idx = if (r.startsWith("rel:")) openKbIndex else synthKbIndex
      idx.getOrElse(r, mutable.Set.empty)
    }.filterNot(_ == tableName).toSet

    candidates.toSeq.map { cand =>
      val cSigs = tableSigs(cand)
      // granular matching: best value-overlap candidate column per
      // query column of the same semantic type
      val score = qSigs.map { qs =>
        cSigs.iterator
          .filter(_.semType == qs.semType)
          .map { cs =>
            val inter = qs.values.count(cs.values)
            val union = qs.values.size + cs.values.size - inter
            if (union == 0) 0.0 else inter.toDouble / union
          }
          .maxOption.getOrElse(0.0)
      }.sum / math.max(1, qSigs.size)
      cand -> score
    }.sortBy { case (t, s) => (-s, t) }.take(k)
  }
}
