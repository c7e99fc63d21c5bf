function TreeNode(left, right, item) {
  return {left: left, right: right, item: item};
}
function itemCheck(t) {
  if (t.left == null) return t.item;
  return t.item + itemCheck(t.left) - itemCheck(t.right);
}
function bottomUpTree(item, depth) {
  if (depth > 0)
    return TreeNode(bottomUpTree(2 * item - 1, depth - 1),
                    bottomUpTree(2 * item, depth - 1), item);
  return TreeNode(null, null, item);
}
var ret = 0;
for (var n = 4; n <= 7; n += 1) {
  var minDepth = 4;
  var maxDepth = Math.max(minDepth + 2, n);
  var stretchDepth = maxDepth + 1;
  var check = itemCheck(bottomUpTree(0, stretchDepth));
  var longLivedTree = bottomUpTree(0, maxDepth);
  for (var depth = minDepth; depth <= maxDepth; depth += 2) {
    var iterations = 1 << (maxDepth - depth + minDepth);
    for (var i = 1; i <= iterations; i++) {
      check += itemCheck(bottomUpTree(i, depth));
      check += itemCheck(bottomUpTree(0 - i, depth));
    }
  }
  ret += itemCheck(longLivedTree);
}
print(ret);
